package repro.experiments

import org.scalatest.funsuite.AnyFunSuite
import repro.bufferpool.Policies.Lru
import repro.device.StorageDevice
import repro.experiments.Scenarios._
import repro.serving.{InferenceEngine, ServingConfig}

/** The tables' "w/ dedup" column serves with LocalitySet-L at rates 1/n. In
  * every cell of Tables 2, 6 and 7 that run reports exactly what the same run
  * under global LRU (LocalitySet-L without rates) reports: the cost model
  * never overrides recency there.
  */
class BaselinePolicySpec extends AnyFunSuite {

  private def check(b: Built, disks: Seq[StorageDevice], poolsGb: Seq[Int], compute: Double,
                    input: Long, pinned: Long, rounds: Int): Unit =
    for (disk <- disks; gb <- poolsGb) {
      val withDedup = serve(b, b.modelIds, disk, gb * GB, dedup = true, optimized = false,
        compute, input, pinned, rounds)
      val cfg = ServingConfig(disk, gb * GB, Lru, compute, input, rounds, pinned)
      val lru = new InferenceEngine(b.store, cfg, b.tensorToModel).serveAll(b.modelIds, b.modelTensors)
      assert(withDedup == lru, s"${b.name} ${disk.name} ${gb}GB")
    }

  test("Table 2: word2vec(6) w/ dedup equals global LRU in every cell") {
    check(word2vec(6), Seq(SsdEff, HddEff), Seq(15, 10, 8),
      W2v.computePerModel, W2v.inputBytes, W2v.pinnedPerModel, 8)
  }

  test("Table 6: textClass w/ dedup equals global LRU in every cell") {
    check(textClass, Seq(SsdEff, HddEff), Seq(15, 10, 8),
      Tc.computePerModel, Tc.inputBytes, Tc.pinnedPerModel, 8)
  }

  test("Table 7: ffnn w/ dedup equals global LRU in every cell") {
    check(ffnn, Seq(SsdEff, HddSeq), Seq(9, 13),
      Ffnn.computePerModel, Ffnn.inputBytes, Ffnn.pinnedPerModel, Ffnn.probeRounds)
  }
}
