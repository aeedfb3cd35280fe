package repro.bufferpool

import org.scalatest.funsuite.AnyFunSuite
import repro.bufferpool.Policies.{Lru, Mru}
import repro.device.StorageDevice

class BufferPoolSpec extends AnyFunSuite {

  private val dev = StorageDevice("T", seekSeconds = 0.0, readMBps = 100)
  private val MB = 1L << 20
  private def meta(set: String = "s", sharers: Set[Int] = Set(1)) = PageMeta(10 * MB, set, sharers)

  test("hits are free, misses charge device read time") {
    val pool = new BufferPool(100 * MB, Lru, dev)
    val c1 = pool.read(1, meta())
    assert(c1 > 0)
    val c2 = pool.read(1, meta())
    assert(c2 == 0.0)
    assert(pool.hits == 1 && pool.misses == 1)
    assert(math.abs(pool.ioSeconds - dev.readSeconds(10 * MB)) < 1e-12)
  }

  test("capacity is never exceeded") {
    val pool = new BufferPool(25 * MB, Lru, dev)
    (1 to 10).foreach(i => pool.read(i, meta()))
    assert(pool.usedBytes <= 25 * MB)
    assert(pool.evictions > 0)
  }

  test("LRU evicts the least recently used page") {
    val pool = new BufferPool(20 * MB, Lru, dev)
    pool.read(1, meta()); pool.read(2, meta())
    pool.read(1, meta())             // 2 is now LRU
    pool.read(3, meta())             // evicts 2
    assert(pool.cached(1) && pool.cached(3) && !pool.cached(2))
  }

  test("MRU evicts the most recently used page") {
    val pool = new BufferPool(20 * MB, Mru, dev)
    pool.read(1, meta()); pool.read(2, meta())
    pool.read(3, meta())             // evicts 2 (most recent resident)
    assert(pool.cached(1) && pool.cached(3) && !pool.cached(2))
  }

  test("repeated scan beyond capacity: MRU keeps a stable prefix, LRU thrashes") {
    def run(policy: LocalitySetPolicy): Double = {
      val pool = new BufferPool(30 * MB, policy, dev)
      for (_ <- 1 to 5; i <- 1 to 5) pool.read(i, meta())
      pool.hitRatio
    }
    val lru = run(Lru); val mru = run(Mru)
    assert(lru == 0.0, s"LRU should thrash on a cyclic scan, got $lru")
    assert(mru > 0.3, s"MRU should retain a scan prefix, got $mru")
  }

  test("a page larger than the pool is read through without caching") {
    val pool = new BufferPool(5 * MB, Lru, dev)
    pool.read(1, meta())
    assert(!pool.cached(1))
    assert(pool.usedBytes == 0)
  }

  test("LRU without rates evicts the globally oldest page across locality sets") {
    val pool = new BufferPool(30 * MB, Lru, dev)
    pool.read(1, meta("a")); pool.read(2, meta("b")); pool.read(3, meta("a"))
    pool.read(1, meta("a"))          // 2, alone in set b, is now the oldest
    pool.read(4, meta("c"))          // evicts 2, then set b is empty
    pool.read(5, meta("c"))          // evicts 3, set a's LRU frame
    assert(pool.cached(1) && !pool.cached(2) && !pool.cached(3) && pool.cached(4) && pool.cached(5))
    assert(pool.evictions == 2)
  }

  test("sharing-aware policy keeps shared pages over equally-recent private pages") {
    val rates = Map(1 -> 0.2, 2 -> 0.2, 3 -> 0.2)
    val pool = new BufferPool(20 * MB,
      LocalitySetPolicy(innerMru = false, sharingAware = true, rates), dev)
    pool.read(1, meta("shared", sharers = Set(1, 2, 3)))
    pool.read(2, meta("private", sharers = Set(1)))
    pool.read(3, meta("private", sharers = Set(1))) // must evict: picks private (lower p_reuse)
    assert(pool.cached(1), "shared page was evicted by the sharing-aware policy")
    assert(!pool.cached(2))
  }

  test("non-sharing-aware locality policy treats shared pages like private ones") {
    val rates = Map(1 -> 0.2, 2 -> 0.2, 3 -> 0.2)
    val pool = new BufferPool(20 * MB,
      LocalitySetPolicy(innerMru = false, sharingAware = false, rates), dev)
    pool.read(1, meta("shared", sharers = Set(1, 2, 3)))
    pool.read(2, meta("private", sharers = Set(1)))
    pool.read(3, meta("private", sharers = Set(1)))
    // Without sharing-awareness the per-model mean rates are equal, expected
    // costs tie, and the fallback is plain recency: the oldest page — the
    // shared one — is evicted. No protection for shared pages.
    assert(!pool.cached(1))
  }

  /** Round-robin serving of 3 models with shared + private pages, 3 rounds. */
  private def serveTrace(policy: LocalitySetPolicy): Double = {
    val pool = new BufferPool(60 * MB, policy, dev)
    val rates = Map(1 -> 0.2, 2 -> 0.2, 3 -> 0.2)
    for (_ <- 1 to 3; m <- 1 to 3) {
      // 4 shared pages (ids 100..103) + 4 private pages per model.
      for (p <- 0 until 4) pool.read(100 + p, meta("shared", sharers = Set(1, 2, 3)))
      for (p <- 0 until 4) pool.read(m * 10 + p, meta(s"weights-$m", sharers = Set(m)))
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
    val pool = new BufferPool(10 * MB, Lru, dev)
    assert(pool.hitRatio == 0.0)
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
