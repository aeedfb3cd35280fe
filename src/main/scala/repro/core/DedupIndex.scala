package repro.core

import scala.collection.mutable
import scala.util.hashing.MurmurHash3

/** Accuracy oracle for one model: given a lookup from the model's logical
  * block references to the weight data *currently* assigned to them (original
  * or representative), return validation accuracy. Implemented by
  * `repro.model.AccuracyEval` adapters; unit tests use analytic stand-ins.
  *
  * Contract for callers: a lookup never mutates an array it has already
  * returned, and a block whose data changed is returned as a different array.
  * An oracle may therefore detect changed blocks by array identity and
  * recompute only what they touch (`AccuracyEval.session` does so).
  */
trait ModelAccuracy {
  def accuracy(lookup: BlockRef => Array[Double]): Double
}

/** Periodic accuracy gate (Alg. 1 lines 27–35): validate after indexing
  * every `checkEvery` blocks; once the drop from the model's initial
  * accuracy exceeds `maxDrop`, stop replacing this model's blocks (already
  * performed replacements are NOT rolled back, matching Sec. 7.3).
  */
final case class Gate(checkEvery: Int, maxDrop: Double) {
  require(checkEvery > 0, s"gate must validate after at least one block: checkEvery = $checkEvery")
  require(maxDrop >= 0, s"gate drop must be non-negative: maxDrop = $maxDrop")
}

/** Order in which a model's blocks are examined (Sec. 4.3 Steps 1–2). */
sealed trait ExamOrder
object ExamOrder {
  /** Ascending 3rd-quartile |w| — the paper's magnitude-aware ordering. */
  case object MagnitudeAscending extends ExamOrder
  /** Write/storage order — used by the Mistique baselines. */
  case object Natural extends ExamOrder
}

/** How candidate duplicate groups are found. */
sealed trait MatcherSpec

/** One band of a signature as an index key: band number `band` and the
  * signature values `values(from until until)`. Two keys are equal exactly
  * when their band numbers and their slices' contents are, so equal slices of
  * different bands never collide. The hash is computed once.
  */
final class BandKey(private val band: Int, private val values: Array[Int], private val from: Int,
                    private val until: Int) {
  override val hashCode: Int = {
    var h = MurmurHash3.mix(MurmurHash3.arraySeed, band)
    var i = from
    while (i < until) { h = MurmurHash3.mix(h, values(i)); i += 1 }
    MurmurHash3.finalizeHash(h, until - from + 1)
  }

  override def equals(o: Any): Boolean = o match {
    case k: BandKey => k.hashCode == hashCode && k.band == band &&
      java.util.Arrays.equals(values, from, until, k.values, k.from, k.until)
    case _ => false
  }

  override def toString: String = values.slice(from, until).mkString(s"$band:", ",", "")
}

/** Hash-signature index; `bands` > 1 cuts the signature into that many equal
  * bands and collides on ANY band (standard MinHash banding). `verifyContent`
  * demands bit-exact equality with the representative on a hit (exact dedup).
  */
final case class SignatureMatcher(hasher: BlockHasher, bands: Int = 1,
                                  verifyContent: Boolean = false) extends MatcherSpec {
  require(bands >= 1 && hasher.length % bands == 0,
    s"bands must be at least 1 and divide the signature length: bands = $bands, length = ${hasher.length}")

  /** Index keys of a block: its signature cut into `bands` slices, each
    * tagged with its band number. One band keys on the whole signature.
    */
  def keys(data: Array[Double]): Array[BandKey] = {
    val sig = hasher.signature(data).values
    val per = sig.length / bands
    val out = new Array[BandKey](bands)
    var i = 0
    while (i < bands) { out(i) = new BandKey(i, sig, i * per, (i + 1) * per); i += 1 }
    out
  }
}
/** Linear scan over group representatives, collide when L2 <= threshold. */
final case class PairwiseMatcher(threshold: Double) extends MatcherSpec

final case class DedupConfig(order: ExamOrder, matcher: MatcherSpec, gate: Option[Gate])

/** Per-model outcome statistics. */
final case class ModelDedupStats(modelId: Int, accuracyBefore: Double, accuracyAfter: Double,
                                 merged: Int, total: Int, stoppedEarly: Boolean,
                                 probeNanos: Long, probes: Int) {
  def accuracyDrop: Double = accuracyBefore - accuracyAfter
  def avgProbeSeconds: Double = if (probes == 0) 0 else probeNanos / 1e9 / probes
}

/** Incremental duplicate-block detection index (Sec. 4, Alg. 1).
  *
  * One engine instance is shared across all models of a serving scenario;
  * `addModel` implements one outer iteration of Alg. 1 and updates the
  * shared state (`idx` and the distinct-block list `L`). The same engine,
  * configured with a different matcher/order/gate, realizes every baseline
  * detector of Sec. 7.3 (see [[Detectors]]).
  *
  * F, the map from each logical block to its distinct block in L, is kept
  * per tensor: one record per live tensor holds, for each position p of its
  * row-major block grid (block p of the `Tensor`), the L index and the group.
  * A tensor enters with `addModel` and leaves whole with `removeTensor`; its
  * record does not change in between. Removing a tensor touches only that
  * record and its groups, and the packing problem reads each tensor's items
  * straight from its record.
  */
final class DedupIndex(val config: DedupConfig) {

  /** A similarity group: representative (index into L), the index keys it
    * was created with, and how many live logical blocks belong to it.
    */
  private final class Group(val repIdx: Int, val keys: Array[BandKey]) {
    var live = 0
  }

  /** One live tensor's part of F: position p, block p of tensor `t`, has ref
    * `refs(p)` and maps to L index `lIdx(p)` through group `group(p)`. The
    * record keeps `t`'s refs and grid, not its data.
    */
  private final class TensorRecord(t: Tensor) {
    val refs: Array[BlockRef] = t.blocks.iterator.map(_.ref).toArray
    val rows: Int = t.rowBlocks
    val cols: Int = t.colBlocks
    val lIdx = new Array[Int](refs.length)
    val group = new Array[Group](refs.length)

    def assign(p: Int, g: Group, l: Int): Unit = { lIdx(p) = l; group(p) = g; g.live += 1 }
  }

  private val groups = mutable.LinkedHashSet.empty[Group] // creation order
  private val bySig = mutable.HashMap.empty[BandKey, Group] // signature matchers only
  private val records = mutable.HashMap.empty[Int, TensorRecord] // F, by tensor id
  private val distinctBuf = mutable.ArrayBuffer.empty[TensorBlock] // L

  private var probeNanosTotal = 0L
  private var probesTotal = 0

  // -- internal matching ---------------------------------------------------

  /** The block's index keys; none for pairwise matching. */
  private def keysOf(block: TensorBlock): Array[BandKey] = config.matcher match {
    case m: SignatureMatcher => m.keys(block.data)
    case _: PairwiseMatcher => DedupIndex.NoKeys
  }

  /** The group this block would join, or null. Signature matching takes the
    * first band key, in band order, whose group passes the content check.
    */
  private def find(block: TensorBlock, keys: Array[BandKey]): Group = config.matcher match {
    case m: SignatureMatcher =>
      var i = 0
      while (i < keys.length) {
        val g = bySig.getOrElse(keys(i), null)
        if (g != null && (!m.verifyContent || distinctBuf(g.repIdx).sameContent(block))) return g
        i += 1
      }
      null
    case PairwiseMatcher(threshold) =>
      groups.iterator.find(g => distinctBuf(g.repIdx).l2(block) <= threshold).orNull
  }

  private def newGroup(block: TensorBlock, keys: Array[BandKey]): Group = {
    distinctBuf += block
    val g = new Group(distinctBuf.size - 1, keys)
    groups += g
    var i = 0
    while (i < keys.length) { bySig.getOrElseUpdate(keys(i), g); i += 1 }
    g
  }

  /** Drop one live block from group `g`; a group left with none disappears,
    * together with the index keys that still point at it.
    */
  private def release(g: Group): Unit = {
    g.live -= 1
    if (g.live == 0) {
      var i = 0
      while (i < g.keys.length) { if (bySig.getOrElse(g.keys(i), null) eq g) bySig.remove(g.keys(i)); i += 1 }
      groups -= g
    }
  }

  /** Indices of `blocks` in the order Alg. 1 examines them. Magnitude keys
    * are computed once per block; the sort is stable, so ties keep write order.
    */
  private def examPermutation(blocks: Vector[TensorBlock]): Array[Int] = config.order match {
    case ExamOrder.MagnitudeAscending =>
      val keys = new Array[Double](blocks.size)
      val it = blocks.iterator
      var i = 0
      while (i < keys.length) { keys(i) = Magnitude.thirdQuartile(it.next().data); i += 1 }
      DedupIndex.stableOrder(keys)
    case ExamOrder.Natural => Array.range(0, blocks.size)
  }

  private[core] def examOrder(blocks: Vector[TensorBlock]): Vector[TensorBlock] =
    examPermutation(blocks).toVector.map(blocks)

  // -- public API ----------------------------------------------------------

  /** Index one model's tensors (Alg. 1). `eval` is consulted only when the
    * config has a gate; pass None for exact dedup or accuracy-free runs.
    *
    * Rejected before the index changes: a model with no blocks; a block whose
    * length differs from the index's dimension (the length of the first block
    * the index stored, else of this model's first block) or that holds a NaN
    * or infinite weight; a tensor whose id is already live in the index or
    * appears twice in the model. A `Tensor` is row-major by construction, so
    * its block p is its position p.
    *
    * @return this model's stats; mappings accumulate in [[mapping]].
    */
  def addModel(tensors: Seq[Tensor], eval: Option[ModelAccuracy]): ModelDedupStats = {
    val blocks: Vector[TensorBlock] = tensors.iterator.flatMap(_.blocks).toVector
    require(blocks.nonEmpty, s"model with tensors ${tensors.map(_.id).mkString("[", ",", "]")} has no blocks")
    val dim = distinctBuf.headOption.getOrElse(blocks.head).data.length
    val seen = mutable.HashSet.empty[Int]
    for (t <- tensors) {
      require(!records.contains(t.id), s"tensor ${t.name} (id ${t.id}) is already in the index; remove it first")
      require(seen.add(t.id), s"tensor ${t.name} (id ${t.id}) appears twice in the model")
      for (b <- t.blocks) {
        require(b.data.length == dim, s"tensor ${t.name} (id ${t.id}): block ${b.ref.blockId} " +
          s"has length ${b.data.length}, index dimension is $dim")
        val data = b.data
        var i = 0
        while (i < dim && java.lang.Double.isFinite(data(i))) i += 1
        val bad = i // the message closure captures a val, so the loop counter stays unboxed
        require(bad == dim, s"tensor ${t.name} (id ${t.id}): block ${b.ref.blockId} " +
          s"has the non-finite weight ${data(bad)} at position $bad")
      }
    }
    // The record and position of every block, by its index in `blocks`.
    val recordOf = new Array[TensorRecord](blocks.size)
    val positionOf = new Array[Int](blocks.size)
    var offset = 0
    for (t <- tensors if t.numBlocks > 0) {
      val rec = new TensorRecord(t)
      records(t.id) = rec
      var p = 0
      while (p < t.numBlocks) { recordOf(offset + p) = rec; positionOf(offset + p) = p; p += 1 }
      offset += t.numBlocks
    }
    // Current weight assignment for this model, mutated as blocks merge. It
    // is the oracle's lookup, so it is kept only when there is an oracle.
    val current = eval.map { _ =>
      val c = mutable.HashMap.empty[BlockRef, Array[Double]]
      blocks.foreach(b => c(b.ref) = b.data)
      c
    }
    def accuracy(): Double = eval.get.accuracy(current.get)

    val a0 = if (eval.isDefined) accuracy() else 1.0
    val probeStart = probeNanosTotal; val probesStart = probesTotal

    val ordered = examPermutation(blocks)
    var merged = 0
    var stopped = false
    var a = a0
    val batch = config.gate.map(_.checkEvery).getOrElse(Int.MaxValue)
    var i = 0
    while (i < ordered.length) {
      val upTo = math.min(i + batch, ordered.length)
      var j = i
      while (j < upTo) {
        val k = ordered(j)
        val b = blocks(k)
        val rec = recordOf(k)
        val p = positionOf(k)
        // A probe, timed for Table 9, is computing the keys and the lookup.
        val t0 = System.nanoTime()
        val keys = keysOf(b)
        val g = find(b, keys)
        probeNanosTotal += System.nanoTime() - t0
        probesTotal += 1
        if (g == null) {
          val fresh = newGroup(b, keys)
          rec.assign(p, fresh, fresh.repIdx)
        } else if (!stopped) {
          rec.assign(p, g, g.repIdx)
          if (current.isDefined) current.get(b.ref) = distinctBuf(g.repIdx).data
          merged += 1
        } else {
          // Gate tripped: record membership but keep a private distinct copy
          // (Sec. 4.3 Step 4 — the block is NOT replaced).
          distinctBuf += b
          rec.assign(p, g, distinctBuf.size - 1)
        }
        j += 1
      }
      i = upTo
      if (!stopped && config.gate.isDefined && eval.isDefined && merged > 0) {
        a = accuracy()
        if (a0 - a > config.gate.get.maxDrop) stopped = true
      }
    }
    if (eval.isDefined) a = accuracy()
    ModelDedupStats(
      modelId = tensors.head.id,
      accuracyBefore = a0, accuracyAfter = a,
      merged = merged, total = blocks.size, stoppedEarly = stopped,
      probeNanos = probeNanosTotal - probeStart, probes = probesTotal - probesStart)
  }

  /** The distinct-block list L: every physically stored block, in index order. */
  def distinct: Vector[TensorBlock] = distinctBuf.toVector

  /** F: each live logical block reference -> index of its distinct block in L. */
  def mapping: Map[BlockRef, Int] = {
    val b = Map.newBuilder[BlockRef, Int]
    for (rec <- records.valuesIterator) {
      var p = 0
      while (p < rec.refs.length) { b += rec.refs(p) -> rec.lIdx(p); p += 1 }
    }
    b.result()
  }

  /** F per live tensor: the L index of each of its logical blocks, in
    * row-major `BlockId` order (duplicates kept).
    */
  def logicalItems: Map[Int, Vector[Int]] = records.iterator.map { case (t, rec) => t -> rec.lIdx.toVector }.toMap

  def numGroups: Int = groups.size
  def numDistinct: Int = distinctBuf.size
  def avgProbeSeconds: Double = if (probesTotal == 0) 0 else probeNanosTotal / 1e9 / probesTotal

  /** Live-member count of the group containing `ref`, or None when no live
    * tensor has a block at `ref` (tests/diagnostics).
    */
  def groupSizeOf(ref: BlockRef): Option[Int] = records.get(ref.tensorId).flatMap { rec =>
    val p = Tensor.position(ref.blockId, rec.rows, rec.cols)
    if (p < 0) None else Some(rec.group(p).live)
  }

  /** Remove every block of a tensor (Sec. 3, model removal is per-tensor
    * removal): each leaves its group; the representative never changes; a
    * group left with no live block disappears with its index keys. The
    * tensor may then be added again.
    * @return how many blocks it had, or 0 when it was not live
    */
  def removeTensor(tensorId: Int): Int = records.remove(tensorId) match {
    case None => 0
    case Some(rec) =>
      rec.group.foreach(release)
      rec.group.length
  }
}

object DedupIndex {
  private val NoKeys = new Array[BandKey](0)

  /** The indices of `keys` ordered by key in `java.lang.Double.compare` order,
    * ties in index order: a bottom-up merge sort over primitive arrays, so
    * no comparison boxes or allocates.
    */
  private[core] def stableOrder(keys: Array[Double]): Array[Int] = {
    val n = keys.length
    var src = Array.range(0, n)
    var dst = new Array[Int](n)
    var width = 1
    while (width < n) {
      // Merge each pair of sorted runs [lo, mid) and [mid, hi) into dst.
      var lo = 0
      while (lo < n) {
        val mid = math.min(lo + width, n)
        val hi = math.min(mid + width, n)
        var i = lo; var j = mid; var k = lo
        while (k < hi) {
          // Taking the left run on ties keeps the sort stable.
          if (j == hi || (i < mid && java.lang.Double.compare(keys(src(i)), keys(src(j))) <= 0)) {
            dst(k) = src(i); i += 1
          } else { dst(k) = src(j); j += 1 }
          k += 1
        }
        lo = hi
      }
      val t = src; src = dst; dst = t
      width *= 2
    }
    src
  }
}
