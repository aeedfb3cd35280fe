package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import org.scalacheck.rng.Seed

class MagnitudeSpec extends AnyFunSuite {

  /** Minimal property harness: sample a scalacheck Gen n times.
    * (scalatestplus-scalacheck is not in the offline cache.)
    */
  private def forAll[A](g: Gen[A], n: Int = 100)(body: A => Unit): Unit =
    Iterator.continually(g.sample).flatten.take(n).foreach(body)

  private def forAll2[A, B](ga: Gen[A], gb: Gen[B], n: Int = 100)(body: (A, B) => Unit): Unit =
    forAll(Gen.zip(ga, gb), n)(t => body(t._1, t._2))

  test("percentile endpoints are min and max of |v|") {
    val v = Array(-5.0, 1.0, 3.0, -2.0)
    assert(Magnitude.percentile(v, 0) == 1.0)
    assert(Magnitude.percentile(v, 100) == 5.0)
  }

  test("median of an odd-length array is the middle |value|") {
    assert(Magnitude.percentile(Array(9.0, -1.0, 5.0), 50) == 5.0)
  }

  test("median of an even-length array interpolates") {
    assert(Magnitude.percentile(Array(1.0, 2.0, 3.0, 4.0), 50) == 2.5)
  }

  test("thirdQuartile sits between median and max") {
    val v = Array.tabulate(101)(i => i.toDouble)
    assert(Magnitude.thirdQuartile(v) == 75.0)
  }

  test("single-element array: every percentile is that |value|") {
    assert(Magnitude.percentile(Array(-7.0), 0) == 7.0)
    assert(Magnitude.percentile(Array(-7.0), 50) == 7.0)
    assert(Magnitude.percentile(Array(-7.0), 100) == 7.0)
  }

  test("empty input is rejected") {
    intercept[IllegalArgumentException](Magnitude.percentile(Array.empty[Double], 50))
  }

  test("out-of-range percentile is rejected") {
    intercept[IllegalArgumentException](Magnitude.percentile(Array(1.0), 101))
    intercept[IllegalArgumentException](Magnitude.percentile(Array(1.0), -1))
  }

  private val vecGen: Gen[Array[Double]] =
    Gen.nonEmptyListOf(Gen.chooseNum(-1e6, 1e6)).map(_.toArray)

  test("property: percentile is monotone in p and bounded by [min,max] of |v|") {
    forAll(vecGen) { v =>
      val abs = v.map(math.abs)
      val p25 = Magnitude.percentile(v, 25)
      val p75 = Magnitude.percentile(v, 75)
      assert(p25 <= p75 + 1e-9)
      assert(p25 >= abs.min - 1e-9 && p75 <= abs.max + 1e-9)
    }
  }

  test("property: percentile equals interpolation over Scala's sorted |v| bit for bit") {
    val withZeros = Gen.nonEmptyListOf(Gen.frequency(
      4 -> Gen.chooseNum(-1e6, 1e6), 1 -> Gen.oneOf(0.0, -0.0))).map(_.toArray)
    forAll2(withZeros, Gen.chooseNum(0.0, 100.0)) { (v, p) =>
      val abs = v.map(math.abs).sorted
      val rank = p / 100.0 * (abs.length - 1)
      val lo = rank.toInt
      val hi = math.min(lo + 1, abs.length - 1)
      val expected = if (abs.length == 1) abs(0) else abs(lo) * (1 - (rank - lo)) + abs(hi) * (rank - lo)
      assert(Magnitude.percentile(v, p) == expected)
    }
  }

  test("property: percentile is scale-equivariant") {
    forAll2(vecGen, Gen.chooseNum(0.1, 10.0)) { (v, s) =>
      val a = Magnitude.percentile(v.map(_ * s), 75)
      val b = Magnitude.percentile(v, 75) * s
      assert(math.abs(a - b) <= 1e-6 * math.max(1.0, math.abs(b)))
    }
  }

  /** The percentile read from a fully sorted copy of |v| (`Arrays.sort`). */
  private def sortedPercentile(v: Array[Double], p: Double): Double = {
    val abs = v.map(math.abs)
    java.util.Arrays.sort(abs)
    if (abs.length == 1) return abs(0)
    val rank = p / 100.0 * (abs.length - 1)
    val lo = rank.toInt
    val hi = math.min(lo + 1, abs.length - 1)
    abs(lo) * (1 - (rank - lo)) + abs(hi) * (rank - lo)
  }

  test("property: percentile equals the sort-based formula bit for bit, with ties, zeros, infinities and NaN") {
    val ties = Gen.oneOf(1.0, -1.0, 2.5, -2.5, 1e-300)
    val value = Gen.frequency(3 -> Gen.chooseNum(-1e6, 1e6), 3 -> ties, 1 -> Gen.oneOf(0.0, -0.0),
      1 -> Gen.oneOf(Double.PositiveInfinity, Double.NegativeInfinity), 1 -> Gen.const(Double.NaN))
    val special = Gen.frequency(6 -> Gen.const(false), 1 -> Gen.const(true))
    val p = Gen.oneOf(Gen.oneOf(0.0, 50.0, 75.0, 100.0), Gen.chooseNum(0.0, 100.0))
    val caseGen = for {
      n <- Gen.oneOf(1, 2, 3, 64)
      // Most vectors are finite; some draw from every special value.
      withSpecial <- special
      v <- Gen.listOfN(n, if (withSpecial) value else Gen.frequency(3 -> Gen.chooseNum(-1e6, 1e6), 3 -> ties))
      q <- p
    } yield (v.toArray, q)
    (1 to 2000).foreach { i =>
      val (v, q) = caseGen.pureApply(Gen.Parameters.default, Seed(i.toLong))
      val (got, want) = (Magnitude.percentile(v, q), sortedPercentile(v, q))
      assert(java.lang.Double.doubleToLongBits(got) == java.lang.Double.doubleToLongBits(want),
        s"seed $i: p=$q v=${v.mkString(",")}: $got != $want")
    }
  }
}
