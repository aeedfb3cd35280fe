package repro.model

import repro.core.{BlockRef, ModelAccuracy, Tensor}
import repro.model.ModelGen.{EmbeddingFamily, EmbeddingShape}
import scala.util.Random

/** Forward-pass validation accuracy for embedding-classifier models.
  *
  * Substitutes the paper's IMDB/Yelp/civil-comments AUC measurements
  * (DESIGN.md §2): a validation example is a small "bag of words" whose rows
  * are drawn preferentially from *hot* (high-magnitude) block-rows; its
  * ground-truth label is the sign of the model's ORIGINAL logit plus label
  * noise. A model's accuracy is real agreement of its current (possibly
  * deduplicated) forward pass with those labels — so replacing a hot block
  * by a similar-but-different representative genuinely moves logits on most
  * examples, while cold-block replacements barely matter. This is the
  * mechanism behind the paper's magnitude-aware ordering.
  */
final class AccuracyEval(family: EmbeddingFamily, numExamples: Int = 1500,
                         wordsPerExample: Int = 8, seed: Long = 1234L) {

  private val shape: EmbeddingShape = family.shape

  /** Validation rows: each example is a set of vocabulary row indices. */
  val examples: Array[Array[Int]] = {
    val rnd = new Random(seed)
    // Sample block-rows proportionally to hotness, then a uniform row inside.
    val cum = family.hot.scanLeft(0.0)(_ + _).tail
    val total = cum.last
    Array.fill(numExamples) {
      Array.fill(wordsPerExample) {
        val u = rnd.nextDouble() * total
        var lo = 0; var hi = cum.length - 1
        while (lo < hi) { val mid = (lo + hi) / 2; if (cum(mid) < u) lo = mid + 1 else hi = mid }
        lo * shape.rowsPerBlock + rnd.nextInt(shape.rowsPerBlock)
      }
    }
  }

  /** The forward kernel: logit of one example, where `blocks(i)` holds the
    * data of block `i` of the model's primary tensor, which sits at grid
    * position (i / colBlocks, i % colBlocks). Only the blocks the example
    * reads are touched.
    */
  private def logit(example: Array[Int], blocks: Array[Array[Double]],
                    head: Array[Double], bias: Double): Double = {
    var out = bias
    var w = 0
    while (w < example.length) {
      val row = example(w)
      val br = row / shape.rowsPerBlock
      val rIn = row % shape.rowsPerBlock
      var bc = 0
      while (bc < shape.colBlocks) {
        val data = blocks(br * shape.colBlocks + bc)
        var cIn = 0
        while (cIn < shape.colsPerBlock) {
          out += data(rIn * shape.colsPerBlock + cIn) * head(bc * shape.colsPerBlock + cIn)
          cIn += 1
        }
        bc += 1
      }
      w += 1
    }
    out
  }

  /** Dense indices of the blocks that at least one example reads, ascending. */
  private def footprint: Array[Int] = {
    val read = new Array[Boolean](shape.numBlocks)
    for (ex <- examples; row <- ex; bc <- 0 until shape.colBlocks)
      read(row / shape.rowsPerBlock * shape.colBlocks + bc) = true
    read.indices.filter(read(_)).toArray
  }

  /** The model's primary tensor, whose block `i` the kernel reads as dense
    * index `i`; so its grid must be the family's.
    */
  private def primaryOf(model: Model): Tensor = {
    val t = model.primary
    require(t.rowBlocks == shape.rowBlocks && t.colBlocks == shape.colBlocks,
      s"model ${model.name} (id ${model.id}): primary tensor ${t.name} has grid ${t.rowBlocks} x ${t.colBlocks}, " +
        s"the family's grid is ${shape.rowBlocks} x ${shape.colBlocks}")
    t
  }

  /** Every example's logit under a block-data lookup: one full forward pass. */
  private def logits(model: Model, lookup: BlockRef => Array[Double]): Array[Double] = {
    val primary = primaryOf(model)
    val blocks = new Array[Array[Double]](shape.numBlocks)
    footprint.foreach(i => blocks(i) = lookup(primary.blocks(i).ref))
    examples.map(logit(_, blocks, model.head, model.bias))
  }

  private def originalLogits(model: Model): Array[Double] = {
    val m = ModelGen.blockData(Seq(model))
    logits(model, m(_))
  }

  private def hitRate(ls: Array[Double], lbls: Array[Boolean]): Double = {
    var hits = 0
    var i = 0
    while (i < ls.length) {
      if ((ls(i) > 0) == lbls(i)) hits += 1
      i += 1
    }
    hits.toDouble / ls.length
  }

  /** Ground-truth labels for a model: original logits + per-model label noise.
    * Deterministic in (model id, labelNoise, seed).
    */
  def labels(model: Model, labelNoise: Double): Array[Boolean] = {
    val rnd = new Random(seed * 31L + model.id)
    val ls = originalLogits(model)
    val scale = scaleOf(ls)
    ls.map(l => l + rnd.nextGaussian() * labelNoise * scale > 0)
  }

  /** Typical |logit| magnitude, used to express label noise relatively. */
  private def scaleOf(ls: Array[Double]): Double = {
    val abs = ls.take(200).map(math.abs)
    abs.sum / abs.length
  }

  /** Accuracy of a (possibly deduplicated) model against fixed labels. */
  def accuracy(model: Model, lbls: Array[Boolean], lookup: BlockRef => Array[Double]): Double =
    hitRate(logits(model, lookup), lbls)

  /** An incremental accuracy oracle for one model (Alg. 1's gate checks).
    * It keeps every example's logit and, on each call, recomputes only the
    * examples that read a block whose array changed since the previous call
    * (see the [[ModelAccuracy]] contract). Each logit is recomputed whole by
    * the same kernel, so every result equals [[accuracy]] bit for bit.
    */
  def session(model: Model, lbls: Array[Boolean]): ModelAccuracy = new Session(model, lbls)

  private final class Session(model: Model, lbls: Array[Boolean]) extends ModelAccuracy {
    private val fp = footprint
    private val refs = {
      val primary = primaryOf(model)
      fp.map(primary.blocks(_).ref)
    }
    private val blocks = new Array[Array[Double]](shape.numBlocks)
    private val ls = new Array[Double](examples.length)
    private val dirty = Array.fill(examples.length)(true)

    /** `readers(k)`: the examples that read footprint block `fp(k)`. */
    private val readers: Array[Array[Int]] = {
      val slot = new Array[Int](shape.numBlocks)
      fp.indices.foreach(k => slot(fp(k)) = k)
      val byBlock = Array.fill(fp.length)(Array.newBuilder[Int])
      for (i <- examples.indices; br <- examples(i).map(_ / shape.rowsPerBlock).distinct;
           bc <- 0 until shape.colBlocks)
        byBlock(slot(br * shape.colBlocks + bc)) += i
      byBlock.map(_.result())
    }

    override def accuracy(lookup: BlockRef => Array[Double]): Double = {
      var k = 0
      while (k < fp.length) {
        val data = lookup(refs(k))
        if (data ne blocks(fp(k))) {
          blocks(fp(k)) = data
          readers(k).foreach(dirty(_) = true)
        }
        k += 1
      }
      var i = 0
      while (i < examples.length) {
        if (dirty(i)) { ls(i) = logit(examples(i), blocks, model.head, model.bias); dirty(i) = false }
        i += 1
      }
      hitRate(ls, lbls)
    }
  }
}
