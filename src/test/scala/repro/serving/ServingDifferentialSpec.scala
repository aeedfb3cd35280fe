package repro.serving

import org.scalatest.funsuite.AnyFunSuite
import repro.bufferpool.{LocalitySetPolicy, PageMeta, ReferenceBufferPool}
import repro.device.StorageDevice
import repro.experiments.Scenarios._
import repro.storage.{PageId, PageStore}

/** `InferenceEngine.serveAll` against the trace written the direct way: every
  * access names its page (input pages by negative ids, store pages by
  * `PageId`) and carries that page's `PageMeta`, and `ReferenceBufferPool`
  * recomputes Eq. 6/7 on every eviction. In every cell of Tables 2, 6 and 7,
  * all three configurations, the two reports are equal bit for bit.
  */
class ServingDifferentialSpec extends AnyFunSuite {

  private def referenceServe(b: Built, store: PageStore, cfg: ServingConfig): ServingReport = {
    val models = b.modelIds
    val pool = new ReferenceBufferPool(cfg.poolBytes - cfg.pinnedBytesPerModel, cfg.policy, cfg.device)
    def describe(id: PageId): PageMeta = {
      val sharers = store.owners(id).map(t => b.tensorToModel.getOrElse(t, t))
      PageMeta(store.pageBytes, if (store.isShared(id)) "shared" else s"weights-${sharers.head}", sharers)
    }
    val inputMeta = PageMeta(store.pageBytes, "input", models.toSet)
    for (m <- models) {
      for (p <- 0L until math.max(1L, cfg.inputBytes / store.pageBytes)) pool.read(-1 - p.toInt, inputMeta)
      val pages = b.modelTensors(m).flatMap(store.pagesOf)
      for (_ <- 1 to cfg.probeRounds; id <- pages) pool.read(id.value, describe(id))
    }
    ServingReport(pool.ioSeconds, cfg.computeSecondsPerModel * models.size, pool.hits, pool.misses)
  }

  private def check(b: Built, disks: Seq[StorageDevice], poolsGb: Seq[Int], compute: Double,
                    input: Long, pinned: Long, rounds: Int): Unit =
    for (disk <- disks; gb <- poolsGb; (dedup, opt) <- Seq((false, false), (true, false), (true, true))) {
      val store = if (dedup) b.store else b.plainStore
      val rates = b.modelIds.map(_ -> 1.0 / b.modelIds.size).toMap
      val cfg = ServingConfig(disk, gb * GB, LocalitySetPolicy(opt, opt, rates), compute, input, rounds, pinned)
      val served = serve(b, b.modelIds, disk, gb * GB, dedup, opt, compute, input, pinned, rounds)
      val ref = referenceServe(b, store, cfg)
      val clue = s"${b.name} ${disk.name} ${gb}GB dedup=$dedup optimized=$opt"
      assert(java.lang.Double.doubleToRawLongBits(served.ioSeconds) ==
        java.lang.Double.doubleToRawLongBits(ref.ioSeconds), s"$clue: ${served.ioSeconds} != ${ref.ioSeconds}")
      assert(served == ref, clue)
    }

  test("Table 2 cells: word2vec(6) serves exactly as the reference trace") {
    check(word2vec(6), Seq(SsdEff, HddEff), Seq(15, 10, 8),
      W2v.computePerModel, W2v.inputBytes, W2v.pinnedPerModel, 8)
  }

  test("Table 6 cells: textClass serves exactly as the reference trace") {
    check(textClass, Seq(SsdEff, HddEff), Seq(15, 10, 8),
      Tc.computePerModel, Tc.inputBytes, Tc.pinnedPerModel, 8)
  }

  test("Table 7 cells: ffnn serves exactly as the reference trace") {
    check(ffnn, Seq(SsdEff, HddSeq), Seq(9, 13),
      Ffnn.computePerModel, Ffnn.inputBytes, Ffnn.pinnedPerModel, Ffnn.probeRounds)
  }
}
