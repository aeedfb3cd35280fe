package repro.bufferpool

import org.scalatest.funsuite.AnyFunSuite
import repro.bufferpool.Policies.{Lru, Mru}
import repro.device.StorageDevice

class BufferPoolSpec extends AnyFunSuite {

  private val dev = StorageDevice("T", seekSeconds = 0.0, readMBps = 100)
  private val MB = 1L << 20
  private def meta(set: String = "s", sharers: Set[Int] = Set(1)) = PageMeta(10 * MB, set, sharers)
  /** A pool over `n` pages of `meta()`. */
  private def uniform(capacity: Long, policy: LocalitySetPolicy, n: Int) =
    new BufferPool(capacity, policy, dev, Vector.fill(n)(meta()))

  test("hits are free, misses charge device read time") {
    val pool = uniform(100 * MB, Lru, 1)
    val c1 = pool.read(0)
    assert(c1 > 0)
    val c2 = pool.read(0)
    assert(c2 == 0.0)
    assert(pool.hits == 1 && pool.misses == 1)
    assert(math.abs(pool.ioSeconds - dev.readSeconds(10 * MB)) < 1e-12)
  }

  test("capacity is never exceeded") {
    val pool = uniform(25 * MB, Lru, 10)
    (0 until 10).foreach(pool.read)
    assert(pool.usedBytes <= 25 * MB)
    assert(pool.evictions > 0)
  }

  test("LRU evicts the least recently used page") {
    val pool = uniform(20 * MB, Lru, 4)
    pool.read(1); pool.read(2)
    pool.read(1)                     // 2 is now LRU
    pool.read(3)                     // evicts 2
    assert(pool.cached(1) && pool.cached(3) && !pool.cached(2))
  }

  test("MRU evicts the most recently used page") {
    val pool = uniform(20 * MB, Mru, 4)
    pool.read(1); pool.read(2)
    pool.read(3)                     // evicts 2 (most recent resident)
    assert(pool.cached(1) && pool.cached(3) && !pool.cached(2))
  }

  test("repeated scan beyond capacity: MRU keeps a stable prefix, LRU thrashes") {
    def run(policy: LocalitySetPolicy): Double = {
      val pool = uniform(30 * MB, policy, 5)
      for (_ <- 1 to 5; i <- 0 until 5) pool.read(i)
      pool.hitRatio
    }
    val lru = run(Lru); val mru = run(Mru)
    assert(lru == 0.0, s"LRU should thrash on a cyclic scan, got $lru")
    assert(mru > 0.3, s"MRU should retain a scan prefix, got $mru")
  }

  test("a page larger than the pool is read through without caching") {
    val pool = uniform(5 * MB, Lru, 1)
    pool.read(0)
    assert(!pool.cached(0))
    assert(pool.usedBytes == 0)
  }

  test("LRU without rates evicts the globally oldest page across locality sets") {
    val pool = new BufferPool(30 * MB, Lru, dev,
      Vector(meta("a"), meta("a"), meta("b"), meta("a"), meta("c"), meta("c")))
    pool.read(1); pool.read(2); pool.read(3)
    pool.read(1)                     // 2, alone in set b, is now the oldest
    pool.read(4)                     // evicts 2, then set b is empty
    pool.read(5)                     // evicts 3, set a's LRU page
    assert(pool.cached(1) && !pool.cached(2) && !pool.cached(3) && pool.cached(4) && pool.cached(5))
    assert(pool.evictions == 2)
  }

  /** Entry 1 is shared by models 1-3; entries 2 and 3 are model 1's private pages. */
  private val sharedThenPrivate = Vector(meta(), meta("shared", sharers = Set(1, 2, 3)),
    meta("private"), meta("private"))

  test("sharing-aware policy keeps shared pages over equally-recent private pages") {
    val rates = Map(1 -> 0.2, 2 -> 0.2, 3 -> 0.2)
    val pool = new BufferPool(20 * MB,
      LocalitySetPolicy(innerMru = false, sharingAware = true, rates), dev, sharedThenPrivate)
    pool.read(1)
    pool.read(2)
    pool.read(3)                     // must evict: picks private (lower p_reuse)
    assert(pool.cached(1), "shared page was evicted by the sharing-aware policy")
    assert(!pool.cached(2))
  }

  test("non-sharing-aware locality policy treats shared pages like private ones") {
    val rates = Map(1 -> 0.2, 2 -> 0.2, 3 -> 0.2)
    val pool = new BufferPool(20 * MB,
      LocalitySetPolicy(innerMru = false, sharingAware = false, rates), dev, sharedThenPrivate)
    pool.read(1)
    pool.read(2)
    pool.read(3)
    // Without sharing-awareness the per-model mean rates are equal, expected
    // costs tie, and the fallback is plain recency: the oldest page — the
    // shared one — is evicted. No protection for shared pages.
    assert(!pool.cached(1))
  }

  /** Round-robin serving of 3 models with shared + private pages, 3 rounds. */
  private def serveTrace(policy: LocalitySetPolicy): Double = {
    // 4 shared pages (entries 0..3) + 4 private pages per model (4m..4m+3).
    val table = Vector.fill(4)(meta("shared", sharers = Set(1, 2, 3))) ++
      (1 to 3).flatMap(m => Vector.fill(4)(meta(s"weights-$m", sharers = Set(m))))
    val pool = new BufferPool(60 * MB, policy, dev, table)
    for (_ <- 1 to 3; m <- 1 to 3) {
      for (p <- 0 until 4) pool.read(p)
      for (p <- 0 until 4) pool.read(m * 4 + p)
    }
    pool.hitRatio
  }

  test("multi-model trace: dedup-aware policy beats locality-set, which beats LRU") {
    val rates = Map(1 -> 0.2, 2 -> 0.2, 3 -> 0.2)
    val lru = serveTrace(Lru)
    val ls = serveTrace(LocalitySetPolicy(innerMru = true, sharingAware = false, rates))
    val opt = serveTrace(LocalitySetPolicy(innerMru = true, sharingAware = true, rates))
    assert(opt >= ls, s"optimized $opt < locality-set $ls")
    assert(opt > lru, s"optimized $opt <= LRU $lru")
  }

  test("hitRatio of an empty pool is 0") {
    val pool = uniform(10 * MB, Lru, 1)
    assert(pool.hitRatio == 0.0)
  }

  test("a page table entry of zero or negative bytes is rejected, naming its index and set") {
    for (bad <- Seq(0L, -MB)) {
      val e = intercept[IllegalArgumentException](
        new BufferPool(10 * MB, Lru, dev, Vector(meta(), meta(), PageMeta(bad, "weights-4", Set(4)))))
      assert(e.getMessage.contains("entry 2") && e.getMessage.contains("weights-4"), e.getMessage)
    }
  }

  test("a rate that is negative, NaN or infinite is rejected, naming the model") {
    for (bad <- Seq(-0.1, Double.NaN, Double.PositiveInfinity)) {
      val e = intercept[IllegalArgumentException](
        LocalitySetPolicy(innerMru = false, sharingAware = true, Map(1 -> 0.2, 7 -> bad)))
      assert(e.getMessage.contains("model 7"), e.getMessage)
    }
    assert(LocalitySetPolicy(innerMru = true, sharingAware = true, Map(1 -> 0.0)).rates(1) == 0.0)
  }
}
