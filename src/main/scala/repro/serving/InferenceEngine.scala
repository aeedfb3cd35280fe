package repro.serving

import repro.bufferpool.{BufferPool, PageMeta, Policy}
import repro.device.StorageDevice
import repro.storage.{PageId, PageStore}

/** Serving-cost parameters of one scenario (DESIGN.md §2: netsDB's
  * execution modeled as a page-access trace over the paper-scale store).
  *
  * A model inference batch performs `probeRounds` passes over the model's
  * weight pages — the repeated probing of the join hash map built from the
  * parameter pages, one pass per input sub-batch — interleaved with reads of
  * the (model-independent) input pages, which have the store's page size.
  * Compute cost is charged evenly across rounds.
  *
  * @param computeSecondsPerModel CPU time for one batch of inferences
  * @param inputBytes             size of the input feature batch
  * @param probeRounds            input sub-batches per inference batch
  * @param pinnedBytesPerModel    transient working state pinned while a model
  *                               is being served (join hash map +
  *                               intermediates); subtracted from the pool
  *                               capacity available to weight/input pages
  */
final case class ServingConfig(device: StorageDevice, poolBytes: Long, policy: Policy,
                               computeSecondsPerModel: Double, inputBytes: Long,
                               probeRounds: Int = 8, pinnedBytesPerModel: Long = 0L)

final case class ServingReport(totalSeconds: Double, ioSeconds: Double,
                               computeSeconds: Double, hitRatio: Double,
                               hits: Long, misses: Long)

/** Trace-driven model-serving engine over the deduplicated page store. */
final class InferenceEngine(store: PageStore, cfg: ServingConfig,
                            tensorToModel: Map[Int, Int]) {

  /** Models that reference a page (for Eq. 7's sharer rates). */
  private def sharersOf(id: PageId): Set[Int] =
    store.owners(id).map(t => tensorToModel.getOrElse(t, t))

  /** Serve one inference batch on every listed model, in order; pages flow
    * through the buffer pool, misses charge device time.
    */
  def serveAll(models: Seq[Int], modelTensors: Map[Int, Seq[Int]]): ServingReport = {
    val effective = math.max(store.pageBytes, cfg.poolBytes - cfg.pinnedBytesPerModel)
    val pool = new BufferPool(effective, cfg.policy, cfg.device)
    val inputPages = math.max(1L, cfg.inputBytes / store.pageBytes).toInt
    val allModels = models.toSet
    var io = 0.0
    for (m <- models) {
      val pages = modelTensors(m).flatMap(store.pagesOf)
      // The input batch is scanned once per model (the hash-map build side
      // streams it); weight pages are probed once per input sub-batch.
      // Input pages use negative ids so they never clash with store pages.
      for (p <- 0 until inputPages)
        io += pool.read(-1 - p, PageMeta(store.pageBytes, "input", allModels))
      for (_ <- 0 until cfg.probeRounds) {
        for (id <- pages) {
          val shared = store.refCount(id) > 1
          val set = if (shared) "shared" else s"weights-$m"
          io += pool.read(id.value, PageMeta(store.page(id).bytes, set, sharersOf(id)))
        }
      }
    }
    val compute = cfg.computeSecondsPerModel * models.size
    ServingReport(compute + io, io, compute, pool.hitRatio, pool.hits, pool.misses)
  }
}
