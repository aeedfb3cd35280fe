package repro.bufferpool

import repro.core.EvictionCost
import repro.device.StorageDevice
import scala.collection.mutable

/** Descriptor the pool needs for each page it may cache.
  *
  * @param bytes       page size (virtual, paper-scale)
  * @param localitySet name of the locality set the page belongs to
  *                    (e.g. "shared", "weights-3", "input")
  * @param sharers     ids of the models that reference the page — drives the
  *                    dedup-aware reuse probability (Eq. 7)
  */
final case class PageMeta(bytes: Long, localitySet: String, sharers: Set[Int])

/** Locality-set policy [18, 73, 74], the pool's one replacement rule: each
  * set orders its pages internally (MRU or LRU) and the victim set is the one
  * whose eviction candidate has the lowest expected cost `c_w + p_reuse * c_r`
  * (Eq. 6). Global LRU is LocalitySet-L without rates (every cost is 0, so the
  * oldest candidate wins); global MRU is LocalitySet-M over a single set.
  *
  * @param innerMru     per-set ordering: true = MRU candidate, false = LRU
  * @param sharingAware the paper's optimization: p_reuse sums the Poisson
  *                     rates of ALL sharers (Eq. 7); when false a page is
  *                     credited only a single model's mean rate
  * @param rates        per-model access rate (arrivals per tick); a model
  *                     without one has rate 0
  */
final case class LocalitySetPolicy(innerMru: Boolean, sharingAware: Boolean,
                                   rates: Map[Int, Double]) {
  for ((m, r) <- rates)
    require(java.lang.Double.isFinite(r) && r >= 0, s"model $m: access rate must be finite and >= 0, got $r")

  /** Eq. 7's reuse probability of a page the models `sharers` read. */
  def pReuse(sharers: Set[Int]): Double = {
    val rs = sharers.toSeq.map(m => rates.getOrElse(m, 0.0))
    if (sharingAware) EvictionCost.pReuse(rs, LocalitySetPolicy.Horizon)
    else EvictionCost.pReuse(Seq(if (rs.isEmpty) 0.0 else rs.sum / rs.size), LocalitySetPolicy.Horizon)
  }
}

object LocalitySetPolicy {
  /** The look-ahead window t of Eq. 7, in ticks: one tick, the unit in
    * which `rates` are given.
    */
  val Horizon: Double = 1.0
}

/** Trace-driven buffer pool simulator over a fixed table of virtual-size
  * pages; a page is named by its index in `pages`.
  *
  * Each table entry is resolved once, when the pool is built: its bytes, its
  * device read time `c_r`, its Eq. 6/7 eviction cost and its locality set.
  * A page's sharers and the rates do not change during a trace, and `c_w` is
  * 0 because every page the engine serves is read-only, so none is dirty.
  *
  * `read` charges `c_r` on a miss and nothing on a hit. Capacity is in bytes;
  * a page larger than the whole pool is read through without caching. Each
  * locality set keeps its resident pages in an intrusive doubly linked list,
  * oldest access first, so an access and an eviction touch only primitive
  * arrays.
  */
final class BufferPool(val capacityBytes: Long, val policy: LocalitySetPolicy,
                       val device: StorageDevice, pages: collection.IndexedSeq[PageMeta]) {
  require(capacityBytes > 0)

  private val n = pages.length
  private val bytes = new Array[Long](n)
  private val readCost = new Array[Double](n)
  private val evictCost = new Array[Double](n)
  private val setOf = new Array[Int](n)
  /** Resolves every entry into the arrays above; the number of distinct sets. */
  private val numSets = {
    val setIds = mutable.HashMap.empty[String, Int]
    var p = 0
    while (p < n) {
      val meta = pages(p)
      require(meta.bytes > 0, s"page table entry $p (locality set ${meta.localitySet}): " +
        s"bytes must be > 0, got ${meta.bytes}")
      bytes(p) = meta.bytes
      readCost(p) = device.readSeconds(meta.bytes)
      evictCost(p) = EvictionCost.expected(0.0, readCost(p), policy.pReuse(meta.sharers))
      setOf(p) = setIds.getOrElseUpdate(meta.localitySet, setIds.size)
      p += 1
    }
    setIds.size
  }

  private val resident = new Array[Boolean](n)
  private val lastSeq = new Array[Long](n)
  /** Links of each resident page in its set's list; -1 ends a list. */
  private val prev = new Array[Int](n)
  private val next = new Array[Int](n)
  /** Each set's oldest (head) and most recent (tail) resident page; -1 when empty. */
  private val head = new Array[Int](numSets)
  private val tail = new Array[Int](numSets)
  java.util.Arrays.fill(head, -1)
  java.util.Arrays.fill(tail, -1)

  private var seq = 0L
  private var used = 0L
  private var nHits, nMisses, nEvictions = 0L
  private var io = 0.0

  def hits: Long = nHits
  def misses: Long = nMisses
  def evictions: Long = nEvictions
  def ioSeconds: Double = io
  def hitRatio: Double = if (hits + misses == 0) 0.0 else hits.toDouble / (hits + misses)
  def usedBytes: Long = used
  def cached(page: Int): Boolean = resident(page)

  private def append(p: Int): Unit = {
    val s = setOf(p)
    val t = tail(s)
    prev(p) = t
    next(p) = -1
    if (t < 0) head(s) = p else next(t) = p
    tail(s) = p
  }

  private def unlink(p: Int): Unit = {
    val s = setOf(p)
    val a = prev(p)
    val b = next(p)
    if (a < 0) head(s) = b else next(a) = b
    if (b < 0) tail(s) = a else prev(b) = a
  }

  /** Whether page `a`'s (cost, lastSeq) is below page `b`'s. */
  private def offersLess(a: Int, b: Int): Boolean = {
    val byCost = java.lang.Double.compare(evictCost(a), evictCost(b))
    byCost < 0 || (byCost == 0 && lastSeq(a) < lastSeq(b))
  }

  /** Each non-empty set offers its recency-end page; the lowest
    * (cost, lastSeq) goes. `lastSeq` is unique per page, so no two offers tie.
    */
  private def evictOne(): Unit = {
    var victim = -1
    var s = 0
    while (s < numSets) {
      val c = if (policy.innerMru) tail(s) else head(s)
      if (c >= 0 && (victim < 0 || offersLess(c, victim))) victim = c
      s += 1
    }
    unlink(victim)
    resident(victim) = false
    used -= bytes(victim)
    nEvictions += 1
  }

  /** Access page `page` of the table for reading; returns the seconds charged. */
  def read(page: Int): Double = {
    seq += 1
    if (resident(page)) {
      lastSeq(page) = seq
      unlink(page)
      append(page)
      nHits += 1
      0.0
    } else {
      nMisses += 1
      val cost = readCost(page)
      io += cost
      val b = bytes(page)
      if (b <= capacityBytes) {
        // An empty pool has room for any page that fits the capacity.
        while (used + b > capacityBytes) evictOne()
        resident(page) = true
        lastSeq(page) = seq
        append(page)
        used += b
      }
      cost
    }
  }
}
