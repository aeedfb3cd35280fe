package repro.model

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** `GaussianStream` against `java.util.Random.nextGaussian`, by raw bits. */
class GaussianStreamSpec extends AnyFunSuite {

  private def sameStream(seed: Long, n: Int): Unit = {
    val ours = new GaussianStream(seed)
    val theirs = new java.util.Random(seed)
    for (i <- 0 until n) {
      val (a, b) = (ours.nextGaussian(), theirs.nextGaussian())
      assert(java.lang.Double.doubleToRawLongBits(a) == java.lang.Double.doubleToRawLongBits(b),
        s"seed $seed, draw $i: $a != $b")
    }
  }

  test("property: the stream equals java.util.Random's Gaussians bit for bit, odd and even lengths") {
    val rnd = new Random(31)
    val seeds = Seq(0L, -1L, Long.MinValue, Long.MaxValue) ++ Seq.fill(40)(rnd.nextLong())
    // An odd length ends on a fresh pair's first value, an even one on its spare.
    for (seed <- seeds; n <- Seq(1, 2, 7, 64, 257)) sameStream(seed, n)
  }

  test("fill scales each draw in stream order") {
    val xs = new GaussianStream(5L).fill(9, 0.25)
    val theirs = new java.util.Random(5L)
    assert(xs.toSeq == Seq.fill(9)(theirs.nextGaussian() * 0.25))
  }
}
