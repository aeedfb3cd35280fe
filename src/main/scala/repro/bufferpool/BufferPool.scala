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

/** Trace-driven buffer pool simulator over virtual-size pages.
  *
  * `read` charges device read time on a miss and nothing on a hit. Capacity
  * is in bytes; a page larger than the whole pool is read through without
  * caching. A page's eviction cost is fixed when it enters the pool: its
  * sharers and size do not change while it is resident, and `c_w` is 0
  * because every page the engine serves is read-only, so none is dirty.
  */
final class BufferPool(val capacityBytes: Long, val policy: LocalitySetPolicy,
                       val device: StorageDevice) {
  require(capacityBytes > 0)

  private final class Frame(val id: Int, val set: String, val bytes: Long, val cost: Double, var lastSeq: Long)

  private val frames = mutable.HashMap.empty[Int, Frame]
  /** Each non-empty locality set's frames in recency order, oldest first. */
  private val sets = mutable.HashMap.empty[String, mutable.LinkedHashMap[Int, Frame]]
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
  def cached(pageId: Int): Boolean = frames.contains(pageId)

  /** Each set offers its recency-end frame; the lowest (cost, lastSeq) goes.
    * `lastSeq` is unique per frame, so no two offers tie.
    */
  private def evictOne(): Unit = {
    val f = sets.valuesIterator.map(s => if (policy.innerMru) s.last._2 else s.head._2)
      .minBy(offer => (offer.cost, offer.lastSeq))
    val set = sets(f.set)
    set -= f.id
    if (set.isEmpty) sets -= f.set
    frames -= f.id
    used -= f.bytes
    nEvictions += 1
  }

  /** Access a page for reading; returns the seconds charged. */
  def read(pageId: Int, meta: PageMeta): Double = {
    seq += 1
    frames.get(pageId) match {
      case Some(f) =>
        f.lastSeq = seq
        val set = sets(f.set)
        set -= pageId
        set(pageId) = f
        nHits += 1
        0.0
      case None =>
        nMisses += 1
        val cost = device.readSeconds(meta.bytes)
        io += cost
        if (meta.bytes <= capacityBytes) {
          while (used + meta.bytes > capacityBytes && frames.nonEmpty) evictOne()
          val f = new Frame(pageId, meta.localitySet, meta.bytes,
            EvictionCost.expected(0.0, cost, policy.pReuse(meta.sharers)), seq)
          frames(pageId) = f
          sets.getOrElseUpdate(meta.localitySet, mutable.LinkedHashMap.empty)(pageId) = f
          used += meta.bytes
        }
        cost
    }
  }
}
