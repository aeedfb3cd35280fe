package repro.model

/** The Gaussian stream of `new java.util.Random(seed)`, bit for bit: the same
  * 48-bit linear congruential generator and polar method (with its spare
  * value), kept in plain fields. `java.util.Random.nextGaussian` is
  * `synchronized` and advances its seed by an atomic compare-and-set on every
  * draw; model generation draws only Gaussians from most of its generators
  * and needs neither.
  */
private[model] final class GaussianStream(seed: Long) {
  import GaussianStream.{DoubleUnit, Mask, Multiplier}

  private var state = (seed ^ Multiplier) & Mask
  private var spare = 0.0
  private var haveSpare = false

  private def next(bits: Int): Int = {
    state = (state * Multiplier + 0xBL) & Mask
    (state >>> (48 - bits)).toInt
  }

  /** `java.util.Random.nextDouble`: 53 random bits times 2^-53. */
  private def nextDouble(): Double = ((next(26).toLong << 27) + next(27)) * DoubleUnit

  def nextGaussian(): Double =
    if (haveSpare) { haveSpare = false; spare }
    else {
      var v1, v2, s = 0.0
      while ({
        v1 = 2 * nextDouble() - 1
        v2 = 2 * nextDouble() - 1
        s = v1 * v1 + v2 * v2
        s >= 1 || s == 0
      }) ()
      val multiplier = StrictMath.sqrt(-2 * StrictMath.log(s) / s)
      spare = v2 * multiplier
      haveSpare = true
      v1 * multiplier
    }

  /** `n` draws, each times `scale`. */
  def fill(n: Int, scale: Double): Array[Double] = {
    val out = new Array[Double](n)
    var i = 0
    while (i < n) { out(i) = nextGaussian() * scale; i += 1 }
    out
  }
}

private object GaussianStream {
  private val Multiplier = 0x5DEECE66DL
  private val Mask = (1L << 48) - 1
  private val DoubleUnit = 1.0 / (1L << 53)
}
