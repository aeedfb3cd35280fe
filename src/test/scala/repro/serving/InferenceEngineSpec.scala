package repro.serving

import org.scalatest.funsuite.AnyFunSuite
import repro.bufferpool.LocalitySetPolicy
import repro.bufferpool.Policies.Lru
import repro.core.PagePacking.{Problem, twoStage}
import repro.device.StorageDevice
import repro.storage.PageStore

class InferenceEngineSpec extends AnyFunSuite {

  private val MB = 1L << 20
  private val dev = StorageDevice("T", 0.0, 100)

  /** Two models (tensors 1 and 2) sharing 6 of 8 items; page = 2 items. */
  private def dedupStore: PageStore = {
    val shared = (0 to 5).toVector
    val p = Problem(Map(1 -> (shared :+ 6), 2 -> (shared :+ 7)), l = 2)
    val s = new PageStore(10 * MB); s.load(twoStage(p), p); s
  }

  /** Same logical models without dedup: all pages private. */
  private def plainStore: PageStore = {
    val p = Problem(Map(1 -> (0 to 7).toVector, 2 -> (10 to 17).toVector), l = 2)
    val s = new PageStore(10 * MB); s.load(twoStage(p), p); s
  }

  private def cfg(pool: Long, rounds: Int = 2) = ServingConfig(
    device = dev, poolBytes = pool, policy = Lru,
    computeSecondsPerModel = 1.0, inputBytes = 10 * MB, probeRounds = rounds)

  private val tensorToModel = Map(1 -> 1, 2 -> 2)
  private val modelTensors = Map(1 -> Seq(1), 2 -> Seq(2))

  test("report accounting: total = compute + io; ratios in range") {
    val eng = new InferenceEngine(dedupStore, cfg(1000 * MB), tensorToModel)
    val r = eng.serveAll(Seq(1, 2), modelTensors)
    assert(math.abs(r.totalSeconds - (r.ioSeconds + r.computeSeconds)) < 1e-9)
    assert(r.computeSeconds == 2.0)
    assert(r.hitRatio >= 0 && r.hitRatio <= 1)
    assert(r.hits + r.misses > 0)
  }

  test("with a large pool every page misses exactly once") {
    val store = dedupStore
    val eng = new InferenceEngine(store, cfg(1000 * MB), tensorToModel)
    val r = eng.serveAll(Seq(1, 2), modelTensors)
    // store pages + 1 input page
    assert(r.misses == store.numPages + 1)
  }

  test("deduplication reduces I/O versus private copies (large pool)") {
    val rd = new InferenceEngine(dedupStore, cfg(1000 * MB), tensorToModel)
      .serveAll(Seq(1, 2), modelTensors)
    val rp = new InferenceEngine(plainStore, cfg(1000 * MB), tensorToModel)
      .serveAll(Seq(1, 2), modelTensors)
    assert(rd.ioSeconds < rp.ioSeconds,
      s"dedup io ${rd.ioSeconds} !< plain io ${rp.ioSeconds}")
    assert(rd.misses < rp.misses)
  }

  test("shared pages hit across models even with a small pool and optimized policy") {
    val rates = Map(1 -> 0.5, 2 -> 0.5)
    val opt = LocalitySetPolicy(innerMru = true, sharingAware = true, rates)
    val store = dedupStore
    val cOpt = cfg(40 * MB).copy(policy = opt)
    val rOpt = new InferenceEngine(store, cOpt, tensorToModel).serveAll(Seq(1, 2), modelTensors)
    val rLru = new InferenceEngine(store, cfg(40 * MB), tensorToModel).serveAll(Seq(1, 2), modelTensors)
    assert(rOpt.hitRatio >= rLru.hitRatio,
      s"optimized ${rOpt.hitRatio} < LRU ${rLru.hitRatio}")
  }

  test("more probe rounds increase cost under a thrashing pool but not a large one") {
    val store = dedupStore
    val small2 = new InferenceEngine(store, cfg(30 * MB, rounds = 2), tensorToModel)
      .serveAll(Seq(1, 2), modelTensors)
    val small8 = new InferenceEngine(store, cfg(30 * MB, rounds = 8), tensorToModel)
      .serveAll(Seq(1, 2), modelTensors)
    assert(small8.ioSeconds > small2.ioSeconds)
    val big2 = new InferenceEngine(store, cfg(1000 * MB, rounds = 2), tensorToModel)
      .serveAll(Seq(1, 2), modelTensors)
    val big8 = new InferenceEngine(store, cfg(1000 * MB, rounds = 8), tensorToModel)
      .serveAll(Seq(1, 2), modelTensors)
    assert(math.abs(big8.ioSeconds - big2.ioSeconds) < 1e-9)
  }

  test("serving more models costs more") {
    val store = dedupStore
    val one = new InferenceEngine(store, cfg(100 * MB), tensorToModel).serveAll(Seq(1), modelTensors)
    val two = new InferenceEngine(store, cfg(100 * MB), tensorToModel).serveAll(Seq(1, 2), modelTensors)
    assert(two.totalSeconds > one.totalSeconds)
  }

  test("serveAll rejects a model with no tensor list, naming the model") {
    val eng = new InferenceEngine(dedupStore, cfg(1000 * MB), tensorToModel)
    val e = intercept[IllegalArgumentException](eng.serveAll(Seq(1, 3), modelTensors))
    assert(e.getMessage.contains("model 3"), e.getMessage)
  }

  test("serveAll rejects a tensor the store does not hold, naming the model and the tensor") {
    val eng = new InferenceEngine(dedupStore, cfg(1000 * MB), tensorToModel)
    val e = intercept[IllegalArgumentException](eng.serveAll(Seq(1, 2), modelTensors + (2 -> Seq(2, 9))))
    assert(e.getMessage.contains("model 2") && e.getMessage.contains("tensor 9"), e.getMessage)
  }

  test("ServingConfig rejects a pool, probe count, size or compute time out of range, naming it") {
    val ok = cfg(1000 * MB)
    for ((bad, field) <- Seq[(() => ServingConfig, String)](
      (() => ok.copy(poolBytes = 0), "poolBytes"),
      (() => ok.copy(poolBytes = -MB), "poolBytes"),
      (() => ok.copy(probeRounds = 0), "probeRounds"),
      (() => ok.copy(inputBytes = -1), "inputBytes"),
      (() => ok.copy(pinnedBytesPerModel = -1), "pinnedBytesPerModel"),
      (() => ok.copy(computeSecondsPerModel = -1.0), "computeSecondsPerModel"),
      (() => ok.copy(computeSecondsPerModel = Double.NaN), "computeSecondsPerModel"))) {
      val e = intercept[IllegalArgumentException](bad())
      assert(e.getMessage.contains(field), e.getMessage)
    }
  }

  test("ServingConfig rejects pinned bytes that fill the pool, naming both") {
    for (pinned <- Seq(1000 * MB, 1001 * MB)) {
      val e = intercept[IllegalArgumentException](cfg(1000 * MB).copy(pinnedBytesPerModel = pinned))
      assert(e.getMessage.contains("pinnedBytesPerModel") && e.getMessage.contains("poolBytes"), e.getMessage)
    }
  }

  test("serveAll rejects a pool that leaves less than one page beside the pinned bytes, naming all three") {
    // The store's pages are 10 MB; 15 MB minus 6 MB pinned leaves 9 MB.
    val eng = new InferenceEngine(dedupStore, cfg(15 * MB).copy(pinnedBytesPerModel = 6 * MB), tensorToModel)
    val e = intercept[IllegalArgumentException](eng.serveAll(Seq(1, 2), modelTensors))
    for (name <- Seq("poolBytes", "pinnedBytesPerModel", "pageBytes")) assert(e.getMessage.contains(name), e.getMessage)
    // Exactly one page is enough.
    val onePage = new InferenceEngine(dedupStore, cfg(15 * MB).copy(pinnedBytesPerModel = 5 * MB), tensorToModel)
    assert(onePage.serveAll(Seq(1, 2), modelTensors).misses > 0)
  }
}
