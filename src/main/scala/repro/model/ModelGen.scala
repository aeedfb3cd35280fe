package repro.model

import repro.core.{BlockRef, Tensor, TensorBlock}
import scala.util.Random

/** A servable model: one or more parameter tensors plus a (tiny, private)
  * classification head used by the accuracy surrogate. The head mirrors the
  * paper's small fully-connected layers, which netsDB encodes in a UDF and
  * never deduplicates — so it takes no pages in the store.
  */
final case class Model(id: Int, name: String, tensors: Vector[Tensor],
                       head: Array[Double], bias: Double) {
  def primary: Tensor = tensors.head
  def virtualBytes: Long = tensors.iterator.map(_.virtualBytes).sum
}

/** Synthetic model families reproducing the paper's three serving scenarios
  * (Sec. 7.1). See DESIGN.md §2 for the substitution rationale.
  *
  * Structure of the embedding families: a deterministic "pretrained" base
  * tensor W0 whose block magnitudes follow a popularity (hotness) power law —
  * frequently-used rows carry larger weights, exactly the blocks whose
  * perturbation hurts accuracy. A derived model perturbs (a) all blocks by a
  * small "training drift" epsilon when its embedding layer is *trainable*
  * (zero drift when frozen), and (b) a chosen fraction of blocks by a large
  * divergence — those become the model's private blocks after deduplication.
  */
object ModelGen {

  /** Shape parameters for an embedding-style tensor family.
    *
    * Real content: a V x D matrix split into a rowBlocks x colBlocks grid,
    * so each block holds (V/rowBlocks) x (D/colBlocks) real weights. The
    * virtual (paper-scale) size of every block is `blockVirtualBytes`.
    */
  final case class EmbeddingShape(rowBlocks: Int = 128, colBlocks: Int = 4,
                                  rowsPerBlock: Int = 8, colsPerBlock: Int = 8,
                                  blockVirtualBytes: Long = 8L << 20) {
    def vocab: Int = rowBlocks * rowsPerBlock
    def embDim: Int = colBlocks * colsPerBlock
    def blockDim: Int = rowsPerBlock * colsPerBlock
    def numBlocks: Int = rowBlocks * colBlocks
  }

  /** Per-model divergence description. */
  final case class Variant(name: String,
                           trainDrift: Double,       // epsilon applied to all blocks (0 = frozen)
                           strongFraction: Double,   // fraction of blocks strongly diverged
                           strongScale: Double,      // noise scale of strong divergence
                           labelNoise: Double)       // label noise -> pre-dedup accuracy level

  /** Popularity of each block-row; hot rows get larger base weights. */
  private def hotness(shape: EmbeddingShape, rnd: Random): Array[Double] = {
    // Power-law over a random permutation of block-rows so hot blocks are
    // scattered across the grid rather than clustered at the top.
    val ranks = rnd.shuffle((1 to shape.rowBlocks).toVector)
    ranks.map(r => 1.0 / math.pow(r, 0.7)).toArray
  }

  /** Deterministic base ("pretrained") weights for one block. */
  private def baseBlock(shape: EmbeddingShape, hot: Array[Double], r: Int, c: Int,
                        seed: Long): Array[Double] = {
    val scale = 0.05 + 2.0 * hot(r)
    new GaussianStream(seed * 1000003L + r * 131L + c).fill(shape.blockDim, scale)
  }

  /** Hotness map is derived once per family seed (shared across variants). */
  final case class EmbeddingFamily(shape: EmbeddingShape, seed: Long) {
    val hot: Array[Double] = hotness(shape, new Random(seed))

    /** The frozen pretrained tensor (identical for every frozen model). */
    def baseTensor(tensorId: Int, name: String): Tensor =
      Tensor.tabulate(tensorId, name, shape.rowBlocks, shape.colBlocks, shape.blockDim,
        shape.blockVirtualBytes)((r, c) => baseBlock(shape, hot, r, c, seed))

    /** A model derived from the base by the given variant. */
    def model(modelId: Int, v: Variant): Model = {
      val rnd = new Random(seed * 31L + modelId * 7919L)
      // Strong divergence hits a CONTIGUOUS run of blocks: finetuning on a
      // domain corpus reshapes a contiguous slice of domain vocabulary.
      // (Contiguity is also what lets online packing reuse most pages when a
      // new model arrives — Table 13.)
      val strong: Set[Int] = {
        val n = math.round(v.strongFraction * shape.numBlocks).toInt
        val start = rnd.nextInt(math.max(1, shape.numBlocks))
        (0 until n).map(i => (start + i) % shape.numBlocks).toSet
      }
      val t = Tensor.tabulate(modelId, v.name, shape.rowBlocks, shape.colBlocks,
        shape.blockDim, shape.blockVirtualBytes) { (r, c) =>
        val b = baseBlock(shape, hot, r, c, seed)
        val li = r * shape.colBlocks + c
        val brnd = new GaussianStream(seed * 17L + modelId * 1013L + li)
        if (strong.contains(li)) {
          var i = 0; while (i < b.length) { b(i) += brnd.nextGaussian() * v.strongScale; i += 1 }
        } else if (v.trainDrift > 0) {
          var i = 0; while (i < b.length) { b(i) += brnd.nextGaussian() * v.trainDrift; i += 1 }
        }
        b
      }
      val hrnd = new GaussianStream(seed * 13L + modelId)
      val head = hrnd.fill(shape.embDim, 1.0)
      Model(modelId, v.name, Vector(t), head, hrnd.nextGaussian() * 0.1)
    }
  }

  // ------------------------------------------------------------------
  // Scenario 1: multiple versions of personalized Word2Vec embeddings
  // (Sec. 7.1.1). All models are finetunes of the same pretrained model:
  // every block drifts slightly, a few percent diverge strongly, so >90 %
  // of blocks deduplicate (paper: >90 % of pages shared).
  // ------------------------------------------------------------------
  def word2vecFamily(numModels: Int, shape: EmbeddingShape = EmbeddingShape(),
                     seed: Long = 2022L): (EmbeddingFamily, Vector[Model]) = {
    val fam = EmbeddingFamily(shape, seed)
    val corpora = Vector("shakespeare", "firefox", "finewine", "yelp", "imdb", "wiki-extra",
                         "m7", "m8", "m9", "m10", "m11", "m12")
    val models = (0 until numModels).toVector.map { i =>
      val v = Variant(s"w2v-${corpora(i % corpora.size)}", trainDrift = 0.004,
        strongFraction = 0.04 + 0.01 * (i % 3), strongScale = 1.0, labelNoise = 0.05)
      fam.model(i, v)
    }
    (fam, models)
  }

  // ------------------------------------------------------------------
  // Scenario 2: five text classification models (Sec. 7.1.2). Models 1 and
  // 3 freeze the embedding (identical to pretrained, exact duplicates);
  // models 2, 4, 5 train it (all blocks drift; some diverge strongly).
  // Strong fractions are chosen so private-page counts land near Table 4
  // (M1:2, M2:7, M3:1, M4:13, M5:1 of 64 pages).
  // ------------------------------------------------------------------
  /** Variants behind [[textClassFamily]]; label noise sets each model's
    * pre-dedup accuracy level (Table 4's AUC column).
    */
  val textClassVariants: Vector[Variant] = Vector(
    Variant("tc1-imdb-frozen", trainDrift = 0.0, strongFraction = 0.0, strongScale = 0.0, labelNoise = 0.50),
    Variant("tc2-imdb-trained", trainDrift = 0.006, strongFraction = 0.09, strongScale = 1.0, labelNoise = 0.65),
    Variant("tc3-yelp-frozen", trainDrift = 0.0, strongFraction = 0.0, strongScale = 0.0, labelNoise = 0.52),
    Variant("tc4-yelp-trained", trainDrift = 0.006, strongFraction = 0.18, strongScale = 1.0, labelNoise = 0.35),
    Variant("tc5-civil-trained", trainDrift = 0.006, strongFraction = 0.012, strongScale = 1.0, labelNoise = 0.20),
  )

  def textClassFamily(shape: EmbeddingShape = EmbeddingShape(),
                      seed: Long = 7L): (EmbeddingFamily, Vector[Model]) = {
    val fam = EmbeddingFamily(shape, seed)
    (fam, textClassVariants.zipWithIndex.map { case (v, i) => fam.model(i, v) })
  }

  // ------------------------------------------------------------------
  // Scenario 3: transfer learning of extreme classification FFNNs
  // (Sec. 7.1.3): W1 (4.8 GB) is bit-identical across models; W2 (0.2 GB)
  // is private per model. No approximation is involved in deduplication.
  // ------------------------------------------------------------------
  /** @param w1Blocks number of blocks in the shared layer (paper: 4.8 GB / 8 MB = 600)
    * @param w2Blocks number of blocks in the specialized layer (paper: 0.2 GB / 8 MB = 25)
    */
  def ffnnFamily(numModels: Int, w1Blocks: Int = 600, w2Blocks: Int = 25,
                 blockDim: Int = 64, blockVirtualBytes: Long = 8L << 20,
                 seed: Long = 99L): Vector[Model] = {
    def tensor(tid: Int, name: String, nBlocks: Int, blockSeed: Long): Tensor =
      Tensor.tabulate(tid, name, nBlocks, 1, blockDim, blockVirtualBytes) { (r, _) =>
        // Unit scale keeps distinct random blocks far apart in L2, so the
        // LSH index never spuriously merges unrelated FFNN blocks.
        new GaussianStream(blockSeed * 1000003L + r).fill(blockDim, 1.0)
      }
    (0 until numModels).toVector.map { i =>
      // Tensor ids: shared W1 uses the SAME content for every model (same
      // seed), so exact dedup collapses it; W2 is model-specific.
      val w1 = tensor(i * 2, s"ffnn$i-W1", w1Blocks, blockSeed = seed)
      val w2 = tensor(i * 2 + 1, s"ffnn$i-W2", w2Blocks, blockSeed = seed + 1 + i)
      Model(i, s"ffnn-$i", Vector(w1, w2), new GaussianStream(seed * 7L + i).fill(blockDim, 1.0), 0.0)
    }
  }

  /** All logical blocks of a set of models, tagged by owning tensor. */
  def allBlocks(models: Seq[Model]): Vector[TensorBlock] =
    models.iterator.flatMap(_.tensors).flatMap(_.blocks).toVector

  /** Convenience: look up original data of a block by reference. */
  def blockData(models: Seq[Model]): Map[BlockRef, Array[Double]] =
    allBlocks(models).map(b => b.ref -> b.data).toMap
}
