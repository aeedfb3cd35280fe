package repro.core

/** Aggregated magnitude of a tensor block (Sec. 4.3 Step 1).
  *
  * The paper orders blocks by an aggregate of their weights' absolute values
  * and deduplicates low-magnitude blocks first, validating accuracy
  * periodically. It argues the "3rd percentile" aggregate reflects the large
  * weights in a block better than mean or median — which only holds if it
  * means the 3rd *quartile* (75th percentile); we implement it as such and
  * expose the generic percentile so either reading is available.
  */
object Magnitude {

  /** Mean absolute value. */
  def mean(v: Array[Double]): Double = {
    require(v.nonEmpty)
    var s = 0.0; var i = 0
    while (i < v.length) { s += math.abs(v(i)); i += 1 }
    s / v.length
  }

  /** p-th percentile (p in [0,100]) of absolute values, linear interpolation. */
  def percentile(v: Array[Double], p: Double): Double = {
    require(v.nonEmpty && p >= 0 && p <= 100)
    val abs = v.map(math.abs)
    java.util.Arrays.sort(abs)
    if (abs.length == 1) return abs(0)
    val rank = p / 100.0 * (abs.length - 1)
    val lo = rank.toInt
    val hi = math.min(lo + 1, abs.length - 1)
    val frac = rank - lo
    abs(lo) * (1 - frac) + abs(hi) * frac
  }

  def median(v: Array[Double]): Double = percentile(v, 50)

  /** Default aggregate used by the dedup index: 3rd quartile of |w|. */
  def thirdQuartile(v: Array[Double]): Double = percentile(v, 75)
}
