package repro.experiments

import repro.bufferpool.LocalitySetPolicy
import repro.core.PagePacking.{Packing, Problem, twoStage}
import repro.core.{BlockRef, DedupIndex, Detectors, ModelAccuracy, ModelDedupStats}
import repro.device.StorageDevice
import repro.model.ModelGen.EmbeddingShape
import repro.model.{AccuracyEval, Model, ModelGen}
import repro.serving.{InferenceEngine, ServingConfig, ServingReport}
import repro.storage.PageStore

/** Paper-scale workload construction shared by every table harness.
  *
  * All scenarios keep the paper's structural scale (blocks per model, pages,
  * virtual byte sizes) while block payloads are small real vectors — see
  * DESIGN.md §2. Every value is deterministic in fixed seeds.
  */
object Scenarios {

  val PageBytes: Long = 64L << 20
  val BlocksPerPage: Int = 8 // l: 64 MB page / 8 MB block

  /** Effective device models: bandwidth includes netsDB page deserialization
    * overhead, calibrated once against the paper's word2vec latencies
    * (EXPERIMENTS.md §calibration). HDD random-read effective rate is low —
    * dedup-era page access on a loaded HDD is seek-bound.
    */
  val SsdEff: StorageDevice = StorageDevice("SSD", seekSeconds = 2e-4, readMBps = 200)
  val HddEff: StorageDevice = StorageDevice("HDD", seekSeconds = 9e-3, readMBps = 25)
  /** FFNN pages are laid out and scanned sequentially; HDD streams them. */
  val HddSeq: StorageDevice = StorageDevice("HDD", seekSeconds = 9e-3, readMBps = 100)

  /** A fully-built serving scenario. */
  final case class Built(name: String,
                         models: Vector[Model],
                         stats: Vector[ModelDedupStats],
                         index: DedupIndex,
                         problem: Problem,
                         packing: Packing,
                         store: PageStore,
                         plainProblem: Problem,
                         plainStore: PageStore,
                         tensorToModel: Map[Int, Int],
                         modelTensors: Map[Int, Seq[Int]],
                         eval: Option[AccuracyEval],
                         labels: Map[Int, Array[Boolean]]) {
    def modelIds: Seq[Int] = models.map(_.id)
  }

  /** Adapter from the forward-pass surrogate to the index's accuracy oracle:
    * one incremental session per model, dropped with the adapter once
    * `addModel` returns.
    */
  final class EvalAdapter(eval: AccuracyEval, model: Model, lbls: Array[Boolean])
      extends ModelAccuracy {
    private val session = eval.session(model, lbls)
    override def accuracy(lookup: BlockRef => Array[Double]): Double = session.accuracy(lookup)
  }

  /** The no-dedup problem: every logical block is its own item. */
  def plainProblemOf(models: Seq[Model], l: Int): Problem = {
    var next = 0
    Problem(models.flatMap(_.tensors).map { t =>
      next += t.numBlocks
      t.id -> Vector.range(next - t.numBlocks, next)
    }.toMap, l)
  }

  /** Run the proposed detector over a model family and materialize stores. */
  def build(name: String, models: Vector[Model], evalOpt: Option[AccuracyEval],
            labelNoises: Map[Int, Double], l: Int = BlocksPerPage,
            pageBytes: Long = PageBytes, lshW: Double = 0.3): Built = {
    val dim = models.head.tensors.head.blocks.head.data.length
    val idx = Detectors.proposed(dim, w = lshW)
    val labels: Map[Int, Array[Boolean]] = evalOpt match {
      case Some(ev) => models.map(m => m.id -> ev.labels(m, labelNoises.getOrElse(m.id, 0.1))).toMap
      case None => Map.empty
    }
    val stats = models.map { m =>
      val oracle = evalOpt.map(ev => new EvalAdapter(ev, m, labels(m.id)))
      idx.addModel(m.tensors, oracle)
    }
    val problem = Problem.fromDedup(idx, l)
    val packing = twoStage(problem)
    val store = new PageStore(pageBytes)
    store.load(packing, problem)
    val plain = plainProblemOf(models, l)
    val plainStore = new PageStore(pageBytes)
    plainStore.load(twoStage(plain), plain)
    val t2m = models.flatMap(m => m.tensors.map(_.id -> m.id)).toMap
    val m2t = models.map(m => m.id -> m.tensors.map(_.id)).toMap
    Built(name, models, stats, idx, problem, packing, store, plain, plainStore,
      t2m, m2t, evalOpt, labels)
  }

  // -- concrete scenarios (cached: building runs the full dedup pipeline) --

  /** Word2Vec family of up to 12 finetuned models (Sec. 7.1.1). */
  def word2vec(numModels: Int): Built = w2vCache.getOrElseUpdate(numModels, {
    val (fam, models) = ModelGen.word2vecFamily(numModels)
    val eval = new AccuracyEval(fam)
    build(s"word2vec-$numModels", models, Some(eval),
      models.map(_.id -> 0.05).toMap)
  })
  private val w2vCache = scala.collection.mutable.Map.empty[Int, Built]

  /** Five text classification models (Sec. 7.1.2), default blocking. */
  lazy val textClass: Built = {
    val (fam, models) = ModelGen.textClassFamily()
    val eval = new AccuracyEval(fam)
    build("textclass", models, Some(eval), tcNoises)
  }

  private def tcNoises: Map[Int, Double] =
    ModelGen.textClassVariants.zipWithIndex.map { case (v, i) => i -> v.labelNoise }.toMap

  /** Text classification at the 300x300 blocking (Tables 11/12): the same
    * 1M x 500 logical tensor split into 6668 blocks of 0.72 MB; 64 MB pages
    * hold 88 such blocks, 32 MB pages hold 44.
    */
  lazy val textClassFine: Built = {
    val shape = EmbeddingShape(rowBlocks = 3334, colBlocks = 2, rowsPerBlock = 2,
      colsPerBlock = 8, blockVirtualBytes = 720_000L)
    val (fam, models) = ModelGen.textClassFamily(shape, seed = 7L)
    val eval = new AccuracyEval(fam)
    // LSH bucket width scales with block dimension: sqrt(16)/sqrt(64) of the
    // default-width blocks, so drift still collides while genuinely distinct
    // small blocks rarely do.
    build("textclass-300x300", models, Some(eval), tcNoises, l = 88, pageBytes = PageBytes,
      lshW = 0.08)
  }

  /** Three transfer-learning FFNN models sharing W1 (Sec. 7.1.3): exact
    * sharing, no accuracy approximation — no gate required.
    */
  lazy val ffnn: Built = {
    val models = ModelGen.ffnnFamily(3)
    build("ffnn", models, None, Map.empty)
  }

  // -- latency harness ----------------------------------------------------

  val GB: Long = 1L << 30

  /** One serving run: which store, which caching flavor, which hardware. */
  def serve(b: Built, models: Seq[Int], device: StorageDevice, poolBytes: Long,
            dedup: Boolean, optimized: Boolean, computePerModel: Double,
            inputBytes: Long, pinnedPerModel: Long, probeRounds: Int = 8): ServingReport = {
    val store = if (dedup) b.store else b.plainStore
    val rates = models.map(_ -> 1.0 / models.size.toDouble).toMap
    // The optimized configuration is the paper's Optimized-M: sharing-aware
    // cost model with MRU inside each locality set (stable retention under
    // repeated scans). The baseline configurations are LocalitySet-L.
    val policy = LocalitySetPolicy(innerMru = optimized, sharingAware = optimized, rates)
    val cfg = ServingConfig(device, poolBytes, policy, computePerModel, inputBytes,
      probeRounds, pinnedPerModel)
    new InferenceEngine(store, cfg, b.tensorToModel).serveAll(models, b.modelTensors)
  }

  /** Word2Vec serving constants (calibrated once, see EXPERIMENTS.md):
    * 4 GB join hash map + 1 GB intermediates pinned; 800 MB input batch;
    * ~67 s of compute per model per batch of 100 inferences.
    */
  object W2v {
    val computePerModel = 67.0
    val inputBytes: Long = (0.8 * (1L << 30)).toLong
    val pinnedPerModel: Long = 5L << 30
  }

  /** Text classification constants: same embedding layer plus a tiny FC
    * head evaluated inside a UDF (no pages).
    */
  object Tc {
    val computePerModel = 100.0
    val inputBytes: Long = 512L << 20
    val pinnedPerModel: Long = 5L << 30
  }

  /** FFNN transfer-learning constants: 4.8 GB input batch, two layers, and
    * sequential page layout (HddSeq).
    */
  object Ffnn {
    val computePerModel = 20.0
    val inputBytes: Long = (4.8 * (1L << 30)).toLong
    val pinnedPerModel: Long = 2L << 30
    val probeRounds = 2
  }
}
