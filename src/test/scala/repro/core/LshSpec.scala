package repro.core

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

  test("Signature.key is injective on distinct signatures") {
    assert(Signature(Vector(1, 23)).key != Signature(Vector(12, 3)).key)
    assert(Signature(Vector(1, 23)).key == Signature(Vector(1, 23)).key)
  }

  // Band keys of SignatureMatcher.keys, the one key path of the index.
  test("bandKeysOf: single band is the whole signature; bands partition it") {
    val fixed = new BlockHasher { def signature(v: Array[Double]) = Signature(Vector(1, 2, 3, 4, 5, 6)) }
    val block = Array.fill(dim)(1.0)
    assert(SignatureMatcher(fixed).keys(block) == Seq("0:1,2,3,4,5,6"))
    assert(SignatureMatcher(fixed, bands = 3).keys(block) == Seq("0:1,2", "1:3,4", "2:5,6"))
  }
}
