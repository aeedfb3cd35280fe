package repro.bufferpool

import org.scalatest.funsuite.AnyFunSuite
import repro.device.StorageDevice
import scala.util.Random

/** Randomized invariants of the buffer-pool simulator across every policy. */
class BufferPoolPropertiesSpec extends AnyFunSuite {

  private val dev = StorageDevice("T", 0.001, 100, 100)
  private val MB = 1L << 20

  private def policies(rnd: Random): Seq[Policy] = {
    val rates = (1 to 4).map(_ -> rnd.nextDouble()).toMap
    Seq(Lru, Mru,
      LocalitySetPolicy(innerMru = false, sharingAware = false, rates),
      LocalitySetPolicy(innerMru = true, sharingAware = true, rates))
  }

  private def randomTrace(rnd: Random, n: Int): Seq[(Int, PageMeta)] =
    Seq.fill(n) {
      val id = rnd.nextInt(20)
      val set = s"set-${id % 3}"
      val sharers = (1 to (1 + rnd.nextInt(3))).toSet
      (id, PageMeta((1 + rnd.nextInt(8)) * MB, set, sharers, dirty = rnd.nextInt(10) == 0))
    }

  test("property: capacity is never exceeded under any policy") {
    val rnd = new Random(21)
    for (trial <- 1 to 5; policy <- policies(rnd)) {
      val pool = new BufferPool(20 * MB, policy, dev)
      for ((id, meta) <- randomTrace(rnd, 200)) {
        pool.read(id, meta)
        assert(pool.usedBytes <= 20 * MB, s"${policy.name} trial $trial exceeded capacity")
      }
    }
  }

  test("property: hits + misses equals the number of accesses") {
    val rnd = new Random(22)
    for (policy <- policies(rnd)) {
      val pool = new BufferPool(30 * MB, policy, dev)
      val trace = randomTrace(rnd, 150)
      trace.foreach { case (id, m) => pool.read(id, m) }
      assert(pool.hits + pool.misses == trace.size, policy.name)
      assert(pool.hitRatio >= 0 && pool.hitRatio <= 1)
    }
  }

  test("property: a hit never charges IO; every miss charges at least the read cost") {
    val rnd = new Random(23)
    for (policy <- policies(rnd)) {
      val pool = new BufferPool(30 * MB, policy, dev)
      for ((id, m) <- randomTrace(rnd, 150)) {
        val wasCached = pool.cached(id)
        val cost = pool.read(id, m)
        if (wasCached) assert(cost == 0.0, policy.name)
        else assert(cost >= dev.readSeconds(m.bytes) - 1e-12, policy.name)
      }
    }
  }

  test("property: an infinite pool never evicts and misses each page once") {
    val rnd = new Random(24)
    val pool = new BufferPool(Long.MaxValue / 2, Lru, dev)
    val trace = randomTrace(rnd, 300)
    trace.foreach { case (id, m) => pool.read(id, m) }
    assert(pool.evictions == 0)
    assert(pool.misses == trace.map(_._1).distinct.size)
  }

  test("property: larger pools never hit less on the same deterministic trace") {
    // Uniform page size: the LRU stack/inclusion property needs it.
    val rnd = new Random(25)
    val trace = Seq.fill(300) {
      (rnd.nextInt(20), PageMeta(4 * MB, "s", Set(1)))
    }
    val ratios = Seq(10, 20, 40, 80).map { cap =>
      val pool = new BufferPool(cap * MB, Lru, dev)
      trace.foreach { case (id, m) => pool.read(id, m) }
      pool.hitRatio
    }
    // LRU has the stack property: hit ratio is monotone in capacity.
    assert(ratios == ratios.sorted, s"LRU hit ratios not monotone: $ratios")
  }

  test("property: eviction accounting matches residency") {
    val rnd = new Random(26)
    val pool = new BufferPool(15 * MB, Mru, dev)
    val trace = randomTrace(rnd, 100)
    trace.foreach { case (id, m) => pool.read(id, m) }
    val resident = trace.map(_._1).distinct.count(pool.cached)
    assert(pool.misses - pool.evictions.toInt == resident,
      s"misses ${pool.misses} - evictions ${pool.evictions} != resident $resident")
  }
}
