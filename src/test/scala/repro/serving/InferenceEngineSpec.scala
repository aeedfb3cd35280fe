package repro.serving

import org.scalatest.funsuite.AnyFunSuite
import repro.bufferpool.{LocalitySetPolicy, Lru}
import repro.core.PagePacking.{Problem, twoStage}
import repro.device.StorageDevice
import repro.storage.PageStore

class InferenceEngineSpec extends AnyFunSuite {

  private val MB = 1L << 20
  private val dev = StorageDevice("T", 0.0, 100, 100)

  /** Two models (tensors 1 and 2) sharing 6 of 8 items; page = 2 items. */
  private def dedupStore: PageStore = {
    val shared = (0 to 5).toVector
    val p = Problem(
      owners = shared.map(_ -> Set(1, 2)).toMap ++ Map(6 -> Set(1), 7 -> Set(2)),
      tensors = Map(1 -> (shared :+ 6), 2 -> (shared :+ 7)), l = 2)
    val s = new PageStore(10 * MB); s.load(twoStage(p), p); s
  }

  /** Same logical models without dedup: all pages private. */
  private def plainStore: PageStore = {
    val p = Problem(
      owners = (0 to 7).map(i => i -> Set(1)).toMap ++ (10 to 17).map(i => i -> Set(2)).toMap,
      tensors = Map(1 -> (0 to 7).toVector, 2 -> (10 to 17).toVector), l = 2)
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
}
