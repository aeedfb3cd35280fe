package repro.model

import repro.core.{BlockId, BlockRef}
import repro.model.ModelGen.EmbeddingShape
import scala.util.Random

/** Test-only reference for [[AccuracyEval]]: the straightforward forward pass
  * that resolves every block through the lookup on every read, and the label
  * formula that recomputes the logit scale for every example. The production
  * kernel must agree with it bit for bit.
  */
object ReferenceForward {

  def logit(shape: EmbeddingShape, example: Array[Int], tensorId: Int,
            lookup: BlockRef => Array[Double], head: Array[Double], bias: Double): Double = {
    var out = bias
    var w = 0
    while (w < example.length) {
      val row = example(w)
      val br = row / shape.rowsPerBlock
      val rIn = row % shape.rowsPerBlock
      var bc = 0
      while (bc < shape.colBlocks) {
        val data = lookup(BlockRef(tensorId, BlockId(br, bc)))
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

  def accuracy(eval: AccuracyEval, shape: EmbeddingShape, model: Model, lbls: Array[Boolean],
               lookup: BlockRef => Array[Double]): Double = {
    val hits = eval.examples.indices.count { i =>
      (logit(shape, eval.examples(i), model.primary.id, lookup, model.head, model.bias) > 0) == lbls(i)
    }
    hits.toDouble / eval.examples.length
  }

  def logitScale(eval: AccuracyEval, shape: EmbeddingShape, model: Model): Double = {
    val orig: BlockRef => Array[Double] = {
      val m = ModelGen.blockData(Seq(model)); r => m(r)
    }
    val ls = eval.examples.take(200).map(ex =>
      math.abs(logit(shape, ex, model.primary.id, orig, model.head, model.bias)))
    ls.sum / ls.length
  }

  /** Labels with the scale recomputed inside the per-example map. `seed` is
    * the evaluator's seed.
    */
  def labels(eval: AccuracyEval, shape: EmbeddingShape, model: Model, labelNoise: Double,
             seed: Long): Array[Boolean] = {
    val rnd = new Random(seed * 31L + model.id)
    val orig: BlockRef => Array[Double] = {
      val m = ModelGen.blockData(Seq(model)); r => m(r)
    }
    eval.examples.map { ex =>
      val l = logit(shape, ex, model.primary.id, orig, model.head, model.bias)
      l + rnd.nextGaussian() * labelNoise * logitScale(eval, shape, model) > 0
    }
  }
}
