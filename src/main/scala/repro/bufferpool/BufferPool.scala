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
  * @param dirty       whether eviction must write the page out (c_w > 0)
  */
final case class PageMeta(bytes: Long, localitySet: String, sharers: Set[Int],
                          dirty: Boolean = false)

/** Page-replacement policies compared in Sec. 7.5. */
sealed trait Policy { def name: String }
/** Classic global least-recently-used. */
case object Lru extends Policy { val name = "LRU" }
/** Global most-recently-used (protects scan prefixes). */
case object Mru extends Policy { val name = "MRU" }

/** Locality-set policy [18, 73, 74]: each set orders its pages internally
  * (MRU or LRU) and the victim set is the one whose eviction candidate has
  * the lowest expected cost `c_w + p_reuse * c_r` (Eq. 6).
  *
  * @param innerMru     per-set ordering: true = MRU candidate, false = LRU
  * @param sharingAware the paper's optimization: p_reuse sums the Poisson
  *                     rates of ALL sharers (Eq. 7); when false a page is
  *                     credited only a single model's mean rate
  * @param rates        per-model access rate (arrivals per tick)
  */
final case class LocalitySetPolicy(innerMru: Boolean, sharingAware: Boolean,
                                   rates: Map[Int, Double]) extends Policy {
  val name: String =
    (if (sharingAware) "Optimized-" else "LocalitySet-") + (if (innerMru) "M" else "L")
}

object LocalitySetPolicy {
  /** The look-ahead window t of Eq. 7, in ticks: one tick, the unit in
    * which `rates` are given.
    */
  val Horizon: Double = 1.0
}

/** Trace-driven buffer pool simulator over virtual-size pages.
  *
  * `read` charges device read time on a miss and nothing on a hit; evicting
  * a dirty page charges device write time. Capacity is in bytes; a page
  * larger than the whole pool is read through without caching.
  */
final class BufferPool(val capacityBytes: Long, val policy: Policy,
                       val device: StorageDevice) {
  require(capacityBytes > 0)

  private final class Frame(val meta: PageMeta) { var lastSeq: Long = 0L }

  private val frames = mutable.LinkedHashMap.empty[Int, Frame]
  private var seq = 0L
  private var used = 0L

  var hits: Long = 0L
  var misses: Long = 0L
  var evictions: Long = 0L
  var ioSeconds: Double = 0.0

  def hitRatio: Double = if (hits + misses == 0) 0.0 else hits.toDouble / (hits + misses)
  def usedBytes: Long = used
  def cached(pageId: Int): Boolean = frames.contains(pageId)

  private def pReuseOf(f: Frame): Double = policy match {
    case p: LocalitySetPolicy =>
      val rs = f.meta.sharers.toSeq.map(m => p.rates.getOrElse(m, 0.0))
      if (p.sharingAware) EvictionCost.pReuse(rs, LocalitySetPolicy.Horizon)
      else EvictionCost.pReuse(Seq(if (rs.isEmpty) 0.0 else rs.sum / rs.size), LocalitySetPolicy.Horizon)
    case _ => 0.0
  }

  /** Pick the next victim according to the configured policy. */
  private def victim(): Int = policy match {
    case Lru => frames.minBy(_._2.lastSeq)._1
    case Mru => frames.maxBy(_._2.lastSeq)._1
    case p: LocalitySetPolicy =>
      val bySet = frames.groupBy(_._2.meta.localitySet)
      val candidates = bySet.toSeq.sortBy(_._1).map { case (_, fs) =>
        if (p.innerMru) fs.maxBy(_._2.lastSeq) else fs.minBy(_._2.lastSeq)
      }
      // Lowest expected cost wins; equal costs fall back to plain recency
      // (oldest first), so the un-optimized policy degenerates gracefully.
      candidates.minBy { case (_, f) =>
        val cw = if (f.meta.dirty) device.writeSeconds(f.meta.bytes) else 0.0
        (EvictionCost.expected(cw, device.readSeconds(f.meta.bytes), pReuseOf(f)), f.lastSeq)
      }._1
  }

  private def evictOne(): Unit = {
    val id = victim()
    val f = frames.remove(id).get
    used -= f.meta.bytes
    evictions += 1
    if (f.meta.dirty) ioSeconds += device.writeSeconds(f.meta.bytes)
  }

  /** Access a page for reading; returns the seconds charged. */
  def read(pageId: Int, meta: PageMeta): Double = {
    seq += 1
    frames.get(pageId) match {
      case Some(f) =>
        f.lastSeq = seq
        hits += 1
        0.0
      case None =>
        misses += 1
        val cost = device.readSeconds(meta.bytes)
        ioSeconds += cost
        if (meta.bytes <= capacityBytes) {
          while (used + meta.bytes > capacityBytes && frames.nonEmpty) evictOne()
          val f = new Frame(meta); f.lastSeq = seq
          frames(pageId) = f
          used += meta.bytes
        }
        cost
    }
  }

  /** Drop a page without cost (e.g., transient data freed after use). */
  def discard(pageId: Int): Unit =
    frames.remove(pageId).foreach(f => used -= f.meta.bytes)
}
