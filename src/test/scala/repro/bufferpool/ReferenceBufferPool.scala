package repro.bufferpool

import repro.core.EvictionCost
import repro.device.StorageDevice
import scala.collection.mutable

/** Reference for `BufferPool`'s victim rule, written the direct way: on each
  * eviction it groups the frames by locality set, takes each set's minimum
  * (LocalitySet-L) or maximum (LocalitySet-M) `lastSeq` frame, recomputes
  * Eq. 6/7 for every candidate, and evicts the `minBy (cost, lastSeq)` of the
  * candidates in set-name order. The differential property in
  * `BufferPoolPropertiesSpec` replays random traces through both pools.
  */
final class ReferenceBufferPool(capacityBytes: Long, policy: LocalitySetPolicy,
                                device: StorageDevice) {

  private final class Frame(val meta: PageMeta) { var lastSeq: Long = 0L }

  private val frames = mutable.LinkedHashMap.empty[Int, Frame]
  private var seq = 0L
  private var used = 0L

  var hits: Long = 0L
  var misses: Long = 0L
  var evictions: Long = 0L
  var ioSeconds: Double = 0.0

  def usedBytes: Long = used
  def cached(pageId: Int): Boolean = frames.contains(pageId)

  private def pReuseOf(f: Frame): Double = {
    val rs = f.meta.sharers.toSeq.map(m => policy.rates.getOrElse(m, 0.0))
    if (policy.sharingAware) EvictionCost.pReuse(rs, LocalitySetPolicy.Horizon)
    else EvictionCost.pReuse(Seq(if (rs.isEmpty) 0.0 else rs.sum / rs.size), LocalitySetPolicy.Horizon)
  }

  private def victim(): Int = {
    val candidates = frames.groupBy(_._2.meta.localitySet).toSeq.sortBy(_._1).map { case (_, fs) =>
      if (policy.innerMru) fs.maxBy(_._2.lastSeq) else fs.minBy(_._2.lastSeq)
    }
    candidates.minBy { case (_, f) =>
      (EvictionCost.expected(0.0, device.readSeconds(f.meta.bytes), pReuseOf(f)), f.lastSeq)
    }._1
  }

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
          while (used + meta.bytes > capacityBytes && frames.nonEmpty) {
            val f = frames.remove(victim()).get
            used -= f.meta.bytes
            evictions += 1
          }
          val f = new Frame(meta); f.lastSeq = seq
          frames(pageId) = f
          used += meta.bytes
        }
        cost
    }
  }
}
