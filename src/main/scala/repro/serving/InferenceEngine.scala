package repro.serving

import repro.bufferpool.{BufferPool, LocalitySetPolicy, PageMeta}
import repro.device.StorageDevice
import repro.storage.{PageId, PageStore}
import scala.collection.mutable

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
final case class ServingConfig(device: StorageDevice, poolBytes: Long, policy: LocalitySetPolicy,
                               computeSecondsPerModel: Double, inputBytes: Long,
                               probeRounds: Int = 8, pinnedBytesPerModel: Long = 0L) {
  require(poolBytes > 0, s"poolBytes must be > 0, got $poolBytes")
  require(probeRounds >= 1, s"probeRounds must be >= 1, got $probeRounds")
  require(inputBytes >= 0, s"inputBytes must be >= 0, got $inputBytes")
  require(pinnedBytesPerModel >= 0, s"pinnedBytesPerModel must be >= 0, got $pinnedBytesPerModel")
  require(computeSecondsPerModel >= 0, s"computeSecondsPerModel must be >= 0, got $computeSecondsPerModel")
  require(pinnedBytesPerModel < poolBytes,
    s"pinnedBytesPerModel ($pinnedBytesPerModel) must be < poolBytes ($poolBytes): nothing would be left for pages")
}

final case class ServingReport(ioSeconds: Double, computeSeconds: Double, hits: Long, misses: Long) {
  def totalSeconds: Double = computeSeconds + ioSeconds
  def hitRatio: Double = if (hits + misses == 0) 0.0 else hits.toDouble / (hits + misses)
}

/** Trace-driven model-serving engine over the deduplicated page store. */
final class InferenceEngine(store: PageStore, cfg: ServingConfig,
                            tensorToModel: Map[Int, Int]) {

  /** A page's pool descriptor. Its sharers are the models owning it (Eq. 7);
    * a private page's one owning tensor belongs to the model that reads it.
    */
  private def describe(id: PageId): PageMeta = {
    val sharers = store.owners(id).map(t => tensorToModel.getOrElse(t, t))
    val set = if (store.isShared(id)) "shared" else s"weights-${sharers.head}"
    PageMeta(store.page(id).bytes, set, sharers)
  }

  /** Serve one inference batch on every listed model, in order; pages flow
    * through the buffer pool, misses charge device time.
    */
  def serveAll(models: Seq[Int], modelTensors: Map[Int, Seq[Int]]): ServingReport = {
    val held = store.tensors
    for (m <- models) {
      require(modelTensors.contains(m), s"model $m has no tensors in modelTensors")
      for (t <- modelTensors(m)) require(held(t), s"model $m: tensor $t is not in the page store")
    }
    val effective = cfg.poolBytes - cfg.pinnedBytesPerModel
    require(effective >= store.pageBytes, s"poolBytes (${cfg.poolBytes}) minus pinnedBytesPerModel " +
      s"(${cfg.pinnedBytesPerModel}) leaves less than one page of the store (pageBytes ${store.pageBytes})")
    // The page table: the input pages first, then each store page in the
    // order the trace first reads it. Each model's trace names table entries.
    val inputPages = math.max(1L, cfg.inputBytes / store.pageBytes).toInt
    val inputMeta = PageMeta(store.pageBytes, "input", models.toSet)
    val table = mutable.ArrayBuffer.empty[PageMeta]
    for (_ <- 0 until inputPages) table += inputMeta
    val entryOf = mutable.HashMap.empty[PageId, Int]
    val weightPages = models.iterator.map { m =>
      modelTensors(m).flatMap(store.pagesOf).map { id =>
        entryOf.getOrElseUpdate(id, { table += describe(id); table.size - 1 })
      }.toArray
    }.toArray
    val pool = new BufferPool(effective, cfg.policy, cfg.device, table)
    // The input batch is scanned once per model (the hash-map build side
    // streams it); weight pages are probed once per input sub-batch.
    // Plain loops: every page access of the trace runs here, and a library
    // `foreach` would share its call site with the rest of the program.
    var m = 0
    while (m < weightPages.length) {
      val ids = weightPages(m)
      var p = 0
      while (p < inputPages) { pool.read(p); p += 1 }
      var round = 0
      while (round < cfg.probeRounds) {
        var k = 0
        while (k < ids.length) { pool.read(ids(k)); k += 1 }
        round += 1
      }
      m += 1
    }
    ServingReport(pool.ioSeconds, cfg.computeSecondsPerModel * models.size, pool.hits, pool.misses)
  }
}
