package repro.core

import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class LshSpec extends AnyFunSuite {

  private val dim = 64

  private def randVec(rnd: Random, scale: Double = 1.0): Array[Double] =
    Array.fill(dim)(rnd.nextGaussian() * scale)

  private def perturb(v: Array[Double], rnd: Random, eps: Double): Array[Double] =
    v.map(_ + rnd.nextGaussian() * eps)

  test("L2Lsh is deterministic in its seed") {
    val rnd = new Random(0)
    val v = randVec(rnd)
    val h1 = new L2Lsh(dim, 8, 4.0, seed = 42)
    val h2 = new L2Lsh(dim, 8, 4.0, seed = 42)
    assert(h1.signature(v) == h2.signature(v))
  }

  test("different seeds give different hash families") {
    val rnd = new Random(1)
    val vs = Seq.fill(20)(randVec(rnd))
    val h1 = new L2Lsh(dim, 8, 4.0, seed = 1)
    val h2 = new L2Lsh(dim, 8, 4.0, seed = 2)
    assert(vs.exists(v => h1.signature(v) != h2.signature(v)))
  }

  test("identical vectors always collide") {
    val rnd = new Random(2)
    val h = new L2Lsh(dim, 8, 4.0, seed = 7)
    (1 to 50).foreach { _ =>
      val v = randVec(rnd)
      assert(h.signature(v) == h.signature(v.clone()))
    }
  }

  test("signature has k components") {
    val h = new L2Lsh(dim, 5, 4.0, seed = 7)
    assert(h.signature(new Array[Double](dim)).values.size == 5)
  }

  test("near vectors mostly collide, far vectors mostly do not") {
    val rnd = new Random(3)
    val h = new L2Lsh(dim, 4, 8.0, seed = 11)
    var nearHits = 0; var farHits = 0
    val trials = 200
    (1 to trials).foreach { _ =>
      val v = randVec(rnd)
      if (h.signature(v) == h.signature(perturb(v, rnd, 0.01))) nearHits += 1
      if (h.signature(v) == h.signature(randVec(rnd))) farHits += 1
    }
    assert(nearHits > trials * 0.9, s"near collision rate too low: $nearHits/$trials")
    assert(farHits < trials * 0.2, s"far collision rate too high: $farHits/$trials")
  }

  test("collision rate decays monotonically with perturbation size") {
    val rnd = new Random(4)
    val h = new L2Lsh(dim, 4, 4.0, seed = 13)
    val rates = Seq(0.005, 0.5, 5.0).map { eps =>
      (1 to 200).count { _ =>
        val v = randVec(rnd)
        h.signature(v) == h.signature(perturb(v, rnd, eps))
      }
    }
    assert(rates(0) > rates(1) && rates(1) >= rates(2), s"rates not decaying: $rates")
  }

  test("L2Lsh rejects wrong dimension") {
    val h = new L2Lsh(dim, 4, 4.0, seed = 5)
    intercept[IllegalArgumentException](h.signature(new Array[Double](dim + 1)))
  }

  test("MinHash: identical vectors collide; distant vectors do not") {
    val rnd = new Random(5)
    val h = new MinHashHasher(dim, perms = 16, binWidth = 0.05, seed = 17)
    val v = randVec(rnd)
    assert(h.signature(v) == h.signature(v.clone()))
    val collisions = (1 to 50).count(_ => h.signature(randVec(rnd)) == h.signature(randVec(rnd)))
    assert(collisions < 5)
  }

  test("MinHash tolerates tiny perturbations less gracefully than L2 LSH (discretization)") {
    // A value sitting near a bin boundary flips its bin under tiny noise, so
    // MinHash on discretized values is brittle for near-duplicates — one of
    // the paper's arguments for L2 LSH.
    val rnd = new Random(6)
    val l2 = new L2Lsh(dim, 4, 8.0, seed = 19)
    val mh = new MinHashHasher(dim, perms = 16, binWidth = 0.01, seed = 19)
    var l2Hits = 0; var mhHits = 0
    (1 to 100).foreach { _ =>
      val v = randVec(rnd)
      val u = perturb(v, rnd, 0.01)
      if (l2.signature(v) == l2.signature(u)) l2Hits += 1
      if (mh.signature(v) == mh.signature(u)) mhHits += 1
    }
    assert(l2Hits > mhHits)
  }

  test("MinHash signature length equals perms") {
    val h = new MinHashHasher(dim, perms = 9, binWidth = 0.1, seed = 3)
    assert(h.signature(new Array[Double](dim)).values.size == 9)
  }

  test("ExactHasher collides iff content identical (modulo 64-bit hash)") {
    val rnd = new Random(7)
    val h = new ExactHasher
    val v = randVec(rnd)
    assert(h.signature(v) == h.signature(v.clone()))
    assert(h.signature(v) != h.signature(perturb(v, rnd, 1e-12)))
    val ulp = v.clone(); ulp(dim - 1) = Math.nextUp(ulp(dim - 1))
    assert(h.signature(v) != h.signature(ulp))
  }

  private def key(band: Int, values: Int*): BandKey = new BandKey(band, values.toArray, 0, values.size)

  test("BandKey is injective on distinct slices and bands") {
    assert(key(0, 1, 23) != key(0, 12, 3))
    assert(key(0, 1, 23) == key(0, 1, 23) && key(0, 1, 23).hashCode == key(0, 1, 23).hashCode)
    assert(key(0, 1, 23) != key(1, 1, 23))
    assert(key(0, 1) != key(0, 1, 0))
    // A slice equals the same values cut from another array at another offset.
    assert(new BandKey(2, Array(9, 1, 23, 9), 1, 3) == key(2, 1, 23))
  }

  // Band keys of SignatureMatcher.keys, the one key path of the index.
  test("keys: single band is the whole signature; bands partition it") {
    val fixed = new BlockHasher {
      def length = 6
      def signature(v: Array[Double]) = new Signature(Array(1, 2, 3, 4, 5, 6))
    }
    val block = Array.fill(dim)(1.0)
    assert(SignatureMatcher(fixed).keys(block).toSeq == Seq(key(0, 1, 2, 3, 4, 5, 6)))
    assert(SignatureMatcher(fixed, bands = 3).keys(block).toSeq == Seq(key(0, 1, 2), key(1, 3, 4), key(2, 5, 6)))
    assert(SignatureMatcher(fixed, bands = 3).keys(block).map(_.toString).toSeq == Seq("0:1,2", "1:3,4", "2:5,6"))
  }

  /** A hasher whose signature is the block itself, truncated to ints. */
  private def intHasher(n: Int): BlockHasher = new BlockHasher {
    def length = n
    def signature(v: Array[Double]) = new Signature(v.map(_.toInt))
  }

  test("property: band keys are equal exactly when their string keys are") {
    // Few distinct values, so equal slices within and across bands are common.
    val value = Gen.frequency(4 -> Gen.oneOf(Int.MinValue, -1, 0, 1, Int.MaxValue), 1 -> Gen.choose(-3, 3),
      1 -> Gen.chooseNum(Int.MinValue, Int.MaxValue))
    val caseGen = for {
      n <- Gen.choose(1, 64)
      bands <- Gen.oneOf((1 to n).filter(n % _ == 0))
      a <- Gen.listOfN(n, value)
      b <- Gen.oneOf(Gen.listOfN(n, value), Gen.const(a), Gen.listOfN(n, Gen.oneOf(a)))
    } yield (n, bands, a.toArray, b.toArray)
    var equalPairs = 0; var acrossBands = 0
    (1 to 1000).foreach { i =>
      val (n, bands, a, b) = caseGen.pureApply(Gen.Parameters.default, Seed(i.toLong))
      val m = SignatureMatcher(intHasher(n), bands = bands)
      val (ka, kb) = (m.keys(a.map(_.toDouble)), m.keys(b.map(_.toDouble)))
      val (sa, sb) = (ReferenceDedupIndex.stringKeys(a, bands), ReferenceDedupIndex.stringKeys(b, bands))
      assert(ka.length == bands && sa.size == bands)
      for (x <- 0 until bands; y <- 0 until bands) {
        val same = sa(x) == sb(y)
        assert((ka(x) == kb(y)) == same, s"seed $i: ${sa(x)} vs ${sb(y)}")
        if (same) {
          assert(ka(x).hashCode == kb(y).hashCode, s"seed $i: ${sa(x)}")
          equalPairs += 1
        } else if (sa(x).dropWhile(_ != ':') == sb(y).dropWhile(_ != ':')) acrossBands += 1
      }
    }
    assert(equalPairs > 1000 && acrossBands > 100, s"$equalPairs equal pairs, $acrossBands equal slices across bands")

    // Keys whose hashes collide must still compare their contents. Random
    // two-value keys collide on a 32-bit hash after about 2^16 draws.
    val rnd = new Random(8)
    val byHash = scala.collection.mutable.HashMap.empty[Int, (BandKey, String)]
    var collisions = 0
    while (collisions < 3) {
      val sig = Array(rnd.nextInt(), rnd.nextInt())
      val k = SignatureMatcher(intHasher(2)).keys(sig.map(_.toDouble)).head
      val s = ReferenceDedupIndex.stringKeys(sig, 1).head
      byHash.get(k.hashCode) match {
        case Some((other, os)) if os != s =>
          assert(k != other, s"$s and $os share hash ${k.hashCode}")
          collisions += 1
        case _ => byHash(k.hashCode) = (k, s)
      }
    }
  }

  test("SignatureMatcher rejects a band count that does not divide the signature") {
    val h = new L2Lsh(8, 12, 0.3, 1)
    for (bands <- Seq(5, 0, -3, 24)) {
      val e = intercept[IllegalArgumentException](SignatureMatcher(h, bands = bands))
      assert(e.getMessage.contains(s"bands = $bands") && e.getMessage.contains("length = 12"), e.getMessage)
    }
    for (bands <- Seq(1, 2, 3, 4, 6, 12))
      assert(SignatureMatcher(h, bands = bands).keys(new Array[Double](8)).length == bands)
  }

  test("every hasher's length is the length of its signatures") {
    val v = randVec(new Random(9))
    for (h <- Seq(new L2Lsh(dim, 12, 0.3, 1), new MinHashHasher(dim, 64, 0.2, 1), new ExactHasher))
      assert(h.signature(v).values.length == h.length, h)
  }

  test("L2Lsh and MinHash reject a non-finite or non-positive width, naming the value") {
    for (w <- Seq(Double.PositiveInfinity, Double.NaN, 0.0, -1.0)) {
      val e = intercept[IllegalArgumentException](new L2Lsh(dim, 4, w, seed = 1))
      assert(e.getMessage.contains(s"w = $w"), e.getMessage)
      val f = intercept[IllegalArgumentException](new MinHashHasher(dim, perms = 4, binWidth = w, seed = 1))
      assert(f.getMessage.contains(s"binWidth = $w"), f.getMessage)
    }
  }

  test("L2Lsh and MinHash name a bad dimension, hash count or permutation count") {
    def message(f: => Any): String = intercept[IllegalArgumentException](f).getMessage
    assert(message(new L2Lsh(0, 4, 1.0, seed = 1)).contains("dim = 0"))
    assert(message(new L2Lsh(dim, -2, 1.0, seed = 1)).contains("k = -2"))
    assert(message(new MinHashHasher(-1, 4, 1.0, seed = 1)).contains("dim = -1"))
    assert(message(new MinHashHasher(dim, 0, 1.0, seed = 1)).contains("perms = 0"))
  }
}
