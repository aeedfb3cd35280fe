package repro.core

import scala.util.Random

/** A locality-sensitive signature: equality of the full signature is the
  * collision predicate (the paper uses the signature directly as the index
  * search key). Equality and hash are by content; `values` is never mutated
  * after the hasher fills it.
  */
final class Signature(val values: Array[Int]) {
  override def equals(o: Any): Boolean = o match {
    case s: Signature => java.util.Arrays.equals(values, s.values)
    case _ => false
  }
  override def hashCode: Int = java.util.Arrays.hashCode(values)
  override def toString: String = values.mkString("Signature(", ",", ")")
}

/** Common interface for the paper's three hashing schemes (Sec. 4.2.2):
  * L2 LSH (proposed), MinHash over discretized values (Mistique approximate),
  * and exact content hashing (Mistique exact).
  */
trait BlockHasher {
  /** Number of values in every signature this hasher returns. */
  def length: Int
  def signature(v: Array[Double]): Signature
}

/** p-stable (Gaussian) LSH for Euclidean distance [Datar et al. 2004]:
  * `h_i(v) = floor((a_i . v + b_i) / w)` with `a_i ~ N(0,1)^dim`,
  * `b_i ~ U[0, w)`. Two vectors collide on the full k-hash signature with
  * probability that decays monotonically in their L2 distance; `w` sets the
  * distance scale at which collisions become unlikely.
  *
  * Deterministic in (dim, k, w, seed) so index builds are reproducible.
  */
final class L2Lsh(val dim: Int, val k: Int, val w: Double, seed: Long) extends BlockHasher {
  require(dim > 0, s"L2Lsh dimension must be positive: dim = $dim")
  require(k > 0, s"L2Lsh needs at least one hash: k = $k")
  require(w > 0 && !w.isInfinite, s"L2Lsh width must be finite and positive: w = $w")

  override def length: Int = k

  private val rnd = new Random(seed)
  private val a: Array[Array[Double]] = Array.fill(k)(Array.fill(dim)(rnd.nextGaussian()))
  private val b: Array[Double] = Array.fill(k)(rnd.nextDouble() * w)

  override def signature(v: Array[Double]): Signature = {
    require(v.length == dim, s"vector dim ${v.length} != $dim")
    val out = new Array[Int](k)
    var i = 0
    while (i < k) {
      val ai = a(i)
      var dot = 0.0
      var j = 0
      while (j < dim) { dot += ai(j) * v(j); j += 1 }
      out(i) = math.floor((dot + b(i)) / w).toInt
      i += 1
    }
    new Signature(out)
  }
}

/** MinHash over a discretized vector, modelling Mistique's approximate
  * deduplication: each value is first quantized into a bin of width
  * `binWidth`, the vector becomes the set `{(position, bin)}`, and `perms`
  * universal-hash permutations produce the signature. Deliberately the
  * faithful (and therefore expensive) formulation — the per-block
  * discretization plus `perms` passes over the set is exactly the overhead
  * the paper measures in Table 9.
  */
final class MinHashHasher(val dim: Int, val perms: Int, val binWidth: Double, seed: Long)
    extends BlockHasher {
  require(dim > 0, s"MinHash dimension must be positive: dim = $dim")
  require(perms > 0, s"MinHash needs at least one permutation: perms = $perms")
  require(binWidth > 0 && !binWidth.isInfinite, s"MinHash bin width must be finite and positive: binWidth = $binWidth")

  override def length: Int = perms

  private val rnd = new Random(seed)
  private val LargePrime = 2147483647L // 2^31 - 1
  private val coefA: Array[Long] = Array.fill(perms)(1 + rnd.nextLong(LargePrime - 1))
  private val coefB: Array[Long] = Array.fill(perms)(rnd.nextLong(LargePrime))

  /** Discretize: item id encodes (position, quantized bin). */
  private def items(v: Array[Double]): Array[Long] = {
    val out = new Array[Long](v.length)
    var i = 0
    while (i < v.length) {
      val bin = math.floor(v(i) / binWidth).toLong
      out(i) = i.toLong * 1000003L + bin
      i += 1
    }
    out
  }

  override def signature(v: Array[Double]): Signature = {
    require(v.length == dim, s"vector dim ${v.length} != $dim")
    val set = items(v)
    val out = new Array[Int](perms)
    var p = 0
    while (p < perms) {
      var min = Long.MaxValue
      var i = 0
      while (i < set.length) {
        val h = (coefA(p) * (set(i) & 0x7fffffffL) + coefB(p)) % LargePrime
        if (h < min) min = h
        i += 1
      }
      out(p) = min.toInt
      p += 1
    }
    new Signature(out)
  }
}

/** Bit-exact content hash: collision iff (modulo 64-bit hash collisions) the
  * blocks are identical. Models Mistique's exact deduplication.
  */
final class ExactHasher extends BlockHasher {
  override def length: Int = 2

  override def signature(v: Array[Double]): Signature = {
    var h = 1125899906842597L
    var i = 0
    while (i < v.length) { h = 31 * h + java.lang.Double.doubleToLongBits(v(i)); i += 1 }
    new Signature(Array((h >>> 32).toInt, h.toInt))
  }
}
