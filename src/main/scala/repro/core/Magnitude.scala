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

  /** p-th percentile (p in [0,100]) of absolute values, linear interpolation
    * between the order statistics `lo` and `lo + 1` of |v|. Both are found by
    * selection in `java.lang.Double.compare` order, the total order
    * `Arrays.sort` uses, so the result equals interpolating over a sorted copy
    * bit for bit (NaN sorts last).
    */
  def percentile(v: Array[Double], p: Double): Double = {
    require(v.nonEmpty && p >= 0 && p <= 100)
    val n = v.length
    val abs = new Array[Double](n)
    var i = 0
    while (i < n) { abs(i) = math.abs(v(i)); i += 1 }
    if (n == 1) return abs(0)
    val rank = p / 100.0 * (n - 1)
    val lo = rank.toInt
    val frac = rank - lo
    select(abs, lo)
    // Everything after `lo` now compares >= abs(lo); the next statistic is its minimum.
    var hi = if (lo + 1 < n) abs(lo + 1) else abs(lo)
    i = lo + 2
    while (i < n) { if (java.lang.Double.compare(abs(i), hi) < 0) hi = abs(i); i += 1 }
    abs(lo) * (1 - frac) + hi * frac
  }

  /** Reorders `a` so that `a(k)` is its k-th smallest value in
    * `java.lang.Double.compare` order, nothing before it compares greater and
    * nothing after it compares smaller (quickselect, three-way partition).
    */
  private def select(a: Array[Double], k: Int): Unit = {
    var from = 0; var to = a.length - 1
    while (from < to) {
      val pivot = a((from + to) >>> 1)
      // [from, lt) < pivot, [lt, i) == pivot, (gt, to] > pivot
      var lt = from; var i = from; var gt = to
      while (i <= gt) {
        val c = java.lang.Double.compare(a(i), pivot)
        if (c < 0) { swap(a, lt, i); lt += 1; i += 1 }
        else if (c > 0) { swap(a, i, gt); gt -= 1 }
        else i += 1
      }
      if (k < lt) to = lt - 1
      else if (k > gt) from = gt + 1
      else return
    }
  }

  private def swap(a: Array[Double], i: Int, j: Int): Unit = {
    val t = a(i); a(i) = a(j); a(j) = t
  }

  /** Default aggregate used by the dedup index: 3rd quartile of |w|. */
  def thirdQuartile(v: Array[Double]): Double = percentile(v, 75)
}
