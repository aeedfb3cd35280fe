package repro.bufferpool

import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.bufferpool.Policies.{Lru, Mru}
import repro.device.StorageDevice
import scala.util.Random

/** Randomized invariants of the buffer-pool simulator across every policy. */
class BufferPoolPropertiesSpec extends AnyFunSuite {

  private val dev = StorageDevice("T", 0.001, 100)
  private val MB = 1L << 20

  private def policies(rnd: Random): Seq[LocalitySetPolicy] = {
    val rates = (1 to 4).map(_ -> rnd.nextDouble()).toMap
    Seq(Lru, Mru,
      LocalitySetPolicy(innerMru = false, sharingAware = false, rates),
      LocalitySetPolicy(innerMru = true, sharingAware = true, rates))
  }

  /** A table of 20 pages (one descriptor each: set `set-(id % 3)`, 1–8 MB,
    * models 1..k as sharers) and a trace of `n` accesses over it.
    */
  private def randomTrace(rnd: Random, n: Int): (Vector[PageMeta], Seq[Int]) = {
    val table = Vector.tabulate(20) { id =>
      val sharers = (1 to (1 + rnd.nextInt(3))).toSet
      PageMeta((1 + rnd.nextInt(8)) * MB, s"set-${id % 3}", sharers)
    }
    (table, Seq.fill(n)(rnd.nextInt(20)))
  }

  test("property: capacity is never exceeded under any policy") {
    val rnd = new Random(21)
    for (trial <- 1 to 5; policy <- policies(rnd)) {
      val (table, trace) = randomTrace(rnd, 200)
      val pool = new BufferPool(20 * MB, policy, dev, table)
      for (id <- trace) {
        pool.read(id)
        assert(pool.usedBytes <= 20 * MB, s"$policy trial $trial exceeded capacity")
      }
    }
  }

  test("property: hits + misses equals the number of accesses") {
    val rnd = new Random(22)
    for (policy <- policies(rnd)) {
      val (table, trace) = randomTrace(rnd, 150)
      val pool = new BufferPool(30 * MB, policy, dev, table)
      trace.foreach(pool.read)
      assert(pool.hits + pool.misses == trace.size, policy.toString)
      assert(pool.hitRatio >= 0 && pool.hitRatio <= 1)
    }
  }

  test("property: a hit never charges IO; every miss charges at least the read cost") {
    val rnd = new Random(23)
    for (policy <- policies(rnd)) {
      val (table, trace) = randomTrace(rnd, 150)
      val pool = new BufferPool(30 * MB, policy, dev, table)
      for (id <- trace) {
        val wasCached = pool.cached(id)
        val cost = pool.read(id)
        if (wasCached) assert(cost == 0.0, policy.toString)
        else assert(cost >= dev.readSeconds(table(id).bytes) - 1e-12, policy.toString)
      }
    }
  }

  test("property: an infinite pool never evicts and misses each page once") {
    val rnd = new Random(24)
    val (table, trace) = randomTrace(rnd, 300)
    val pool = new BufferPool(Long.MaxValue / 2, Lru, dev, table)
    trace.foreach(pool.read)
    assert(pool.evictions == 0)
    assert(pool.misses == trace.distinct.size)
  }

  test("property: larger pools never hit less on the same deterministic trace") {
    // Uniform page size: the LRU stack/inclusion property needs it.
    val rnd = new Random(25)
    val trace = Seq.fill(300)(rnd.nextInt(20))
    val ratios = Seq(10, 20, 40, 80).map { cap =>
      val pool = new BufferPool(cap * MB, Lru, dev, Vector.fill(20)(PageMeta(4 * MB, "s", Set(1))))
      trace.foreach(pool.read)
      pool.hitRatio
    }
    // LRU has the stack property: hit ratio is monotone in capacity.
    assert(ratios == ratios.sorted, s"LRU hit ratios not monotone: $ratios")
  }

  test("property: eviction accounting matches residency") {
    val rnd = new Random(26)
    val (table, trace) = randomTrace(rnd, 100)
    val pool = new BufferPool(15 * MB, Mru, dev, table)
    trace.foreach(pool.read)
    val resident = trace.distinct.count(pool.cached)
    assert(pool.misses - pool.evictions.toInt == resident,
      s"misses ${pool.misses} - evictions ${pool.evictions} != resident $resident")
  }

  /** Rates for models 1..6: none at all; 1/5 for models 1..5, whose mean over
    * three sharers is 1 ulp above 1/5; or a mix of missing, zero, 1/5 and
    * random rates.
    */
  private val ratesGen: Gen[Map[Int, Double]] = Gen.oneOf(
    Gen.const(Map.empty[Int, Double]),
    Gen.const((1 to 5).map(_ -> 1.0 / 5).toMap),
    Gen.sequence[Seq[Option[(Int, Double)]], Option[(Int, Double)]]((1 to 6).map { m =>
      Gen.option(Gen.oneOf(Gen.const(0.0), Gen.const(1.0 / 5), Gen.choose(0.0, 1.0)).map(m -> _))
    }).map(_.flatten.toMap))

  /** A trace over 30 pages: each page has one meta (one of four sets, 1–8 MB
    * or larger than any pool, any subset of models 1..6 as sharers, often
    * {1, 2, 3}). The pool under test takes the metas as its page table; the
    * reference reads each access with its page's meta.
    */
  private val traceGen: Gen[(Long, Map[Int, Double], Vector[PageMeta], Seq[Int])] = for {
    capMb <- Gen.choose(8, 40)
    rates <- ratesGen
    metas <- Gen.listOfN(30, for {
      set <- Gen.oneOf("shared", "weights-1", "weights-2", "input")
      mb <- Gen.frequency(9 -> Gen.choose(1, 8), 1 -> Gen.const(64))
      sharers <- Gen.frequency(1 -> Gen.const(Set(1, 2, 3)), 3 -> Gen.someOf(1 to 6).map(_.toSet))
    } yield PageMeta(mb * MB, set, sharers))
    ids <- Gen.listOfN(300, Gen.choose(0, 29))
  } yield (capMb * MB, rates, metas.toVector, ids)

  test("property: the pool decides every access exactly as the reference victim rule") {
    assert(Seq.fill(3)(1.0 / 5).sum / 3 != 1.0 / 5, "the 1-ulp mean case is not exercised")
    for (seed <- 1 to 100) {
      val (cap, rates, metas, trace) = traceGen.pureApply(Gen.Parameters.default, Seed(seed.toLong))
      for (innerMru <- Seq(false, true); sharingAware <- Seq(false, true)) {
        val policy = LocalitySetPolicy(innerMru, sharingAware, rates)
        val pool = new BufferPool(cap, policy, dev, metas)
        val ref = new ReferenceBufferPool(cap, policy, dev)
        for ((id, i) <- trace.zipWithIndex) {
          val clue = s"seed $seed, $policy, access $i"
          assert(pool.read(id) == ref.read(id, metas(id)), clue)
          assert((pool.hits, pool.misses, pool.evictions, pool.ioSeconds, pool.usedBytes) ==
            (ref.hits, ref.misses, ref.evictions, ref.ioSeconds, ref.usedBytes), clue)
          assert((0 until 30).filter(pool.cached) == (0 until 30).filter(ref.cached), clue)
        }
      }
    }
  }
}
