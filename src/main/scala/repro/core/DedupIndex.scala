package repro.core

import scala.collection.mutable

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
  require(checkEvery > 0 && maxDrop >= 0)
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
/** Hash-signature index; `bands` > 1 splits the signature into bands and
  * collides on ANY band (standard MinHash banding). `verifyContent` demands
  * bit-exact equality with the representative on a hit (exact dedup).
  */
final case class SignatureMatcher(hasher: BlockHasher, bands: Int = 1,
                                  verifyContent: Boolean = false) extends MatcherSpec {

  /** Index keys of a block: its signature split into `bands` bands, each
    * tagged with its band number so equal chunks of different bands never
    * collide. One band keys on the whole signature.
    */
  def keys(data: Array[Double]): Seq[String] = {
    val sig = hasher.signature(data)
    if (bands <= 1) Seq("0:" + sig.key)
    else {
      val per = math.max(1, sig.values.size / bands)
      sig.values.grouped(per).zipWithIndex.map { case (chunk, i) => s"$i:${chunk.mkString(",")}" }.toSeq
    }
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
  */
final class DedupIndex(val config: DedupConfig) {

  /** A similarity group: representative (index into L) + member refs. */
  final class Group(val id: Int, val repIdx: Int) {
    val members: mutable.LinkedHashSet[BlockRef] = mutable.LinkedHashSet.empty
  }

  private val groups = mutable.ArrayBuffer.empty[Group]
  private val bySig = mutable.HashMap.empty[String, Group] // signature matchers only
  private val refToGroup = mutable.HashMap.empty[BlockRef, Group]
  private val distinctBuf = mutable.ArrayBuffer.empty[TensorBlock] // L
  private val mappingBuf = mutable.HashMap.empty[BlockRef, Int]    // F

  private var probeNanosTotal = 0L
  private var probesTotal = 0

  // -- internal matching ---------------------------------------------------

  /** Find the group this block would join, or None, together with the
    * block's signature keys (empty for pairwise matching) so that a new
    * group reuses them. Timed for Table 9.
    */
  private def probe(block: TensorBlock): (Option[Group], Seq[String]) = {
    val t0 = System.nanoTime()
    val res = config.matcher match {
      case m: SignatureMatcher =>
        val keys = m.keys(block.data)
        val hit = keys.iterator.flatMap(bySig.get).find { g =>
          !m.verifyContent || distinctBuf(g.repIdx).sameContent(block)
        }
        (hit, keys)
      case PairwiseMatcher(threshold) =>
        (groups.iterator.find(g => distinctBuf(g.repIdx).l2(block) <= threshold), Nil)
    }
    probeNanosTotal += System.nanoTime() - t0
    probesTotal += 1
    res
  }

  private def newGroup(block: TensorBlock, keys: Seq[String]): Group = {
    distinctBuf += block
    val g = new Group(groups.size, distinctBuf.size - 1)
    groups += g
    keys.foreach(k => if (!bySig.contains(k)) bySig(k) = g)
    g
  }

  /** Blocks in the order Alg. 1 examines them. Magnitude keys are computed
    * once per block; the sort is stable, so ties keep write order.
    */
  private[core] def examOrder(blocks: Vector[TensorBlock]): Vector[TensorBlock] = config.order match {
    case ExamOrder.MagnitudeAscending =>
      val keys = blocks.map(b => Magnitude.thirdQuartile(b.data))
      blocks.indices.sortBy(keys).map(blocks).toVector
    case ExamOrder.Natural => blocks
  }

  // -- public API ----------------------------------------------------------

  /** Index one model's tensors (Alg. 1). `eval` is consulted only when the
    * config has a gate; pass None for exact dedup or accuracy-free runs.
    *
    * A model with no blocks, or with a block whose length differs from the
    * index's dimension (the length of the first block the index stored, else
    * of this model's first block), is rejected before the index changes.
    *
    * @return this model's stats; mappings accumulate in [[mapping]].
    */
  def addModel(tensors: Seq[Tensor], eval: Option[ModelAccuracy]): ModelDedupStats = {
    val blocks: Vector[TensorBlock] = tensors.iterator.flatMap(_.blocks).toVector
    require(blocks.nonEmpty, s"model with tensors ${tensors.map(_.id).mkString("[", ",", "]")} has no blocks")
    val dim = distinctBuf.headOption.getOrElse(blocks.head).data.length
    for (t <- tensors; b <- t.blocks if b.data.length != dim)
      throw new IllegalArgumentException(s"tensor ${t.name} (id ${t.id}): block ${b.ref.blockId} " +
        s"has length ${b.data.length}, index dimension is $dim")
    val ordered = examOrder(blocks)
    // Current weight assignment for this model, mutated as blocks merge.
    val current = mutable.HashMap.empty[BlockRef, Array[Double]]
    blocks.foreach(b => current(b.ref) = b.data)
    val lookup: BlockRef => Array[Double] = current(_)

    val a0 = eval.map(_.accuracy(lookup)).getOrElse(1.0)
    val probeStart = probeNanosTotal; val probesStart = probesTotal

    var merged = 0
    var stopped = false
    var a = a0
    val batch = config.gate.map(_.checkEvery).getOrElse(Int.MaxValue)
    var i = 0
    while (i < ordered.size) {
      val upTo = math.min(i + batch, ordered.size)
      var j = i
      while (j < upTo) {
        val b = ordered(j)
        probe(b) match {
          case (Some(g), _) if !stopped =>
            g.members += b.ref
            refToGroup(b.ref) = g
            mappingBuf(b.ref) = g.repIdx
            current(b.ref) = distinctBuf(g.repIdx).data
            merged += 1
          case (Some(g), _) =>
            // Gate tripped: record membership but keep a private distinct copy
            // (Sec. 4.3 Step 4 — the block is NOT replaced).
            g.members += b.ref
            refToGroup(b.ref) = g
            distinctBuf += b
            mappingBuf(b.ref) = distinctBuf.size - 1
          case (None, keys) =>
            val g = newGroup(b, keys)
            g.members += b.ref
            refToGroup(b.ref) = g
            mappingBuf(b.ref) = g.repIdx
        }
        j += 1
      }
      i = upTo
      if (!stopped && config.gate.isDefined && eval.isDefined && merged > 0) {
        a = eval.get.accuracy(lookup)
        if (a0 - a > config.gate.get.maxDrop) stopped = true
      }
    }
    if (eval.isDefined) a = eval.get.accuracy(lookup)
    ModelDedupStats(
      modelId = tensors.head.id,
      accuracyBefore = a0, accuracyAfter = a,
      merged = merged, total = blocks.size, stoppedEarly = stopped,
      probeNanos = probeNanosTotal - probeStart, probes = probesTotal - probesStart)
  }

  /** The distinct-block list L: every physically stored block, in index order. */
  def distinct: Vector[TensorBlock] = distinctBuf.toVector

  /** F: each logical block reference -> index of its distinct block in L. */
  def mapping: Map[BlockRef, Int] = mappingBuf.toMap

  /** Owners of each distinct block: distinct index -> set of tensor ids.
    * Input to equivalent-class page packing (Sec. 5).
    */
  def owners: Map[Int, Set[Int]] =
    mappingBuf.toSeq.groupBy(_._2).map { case (idx, refs) =>
      idx -> refs.map(_._1.tensorId).toSet
    }

  def numGroups: Int = groups.size
  def numDistinct: Int = distinctBuf.size
  def avgProbeSeconds: Double = if (probesTotal == 0) 0 else probeNanosTotal / 1e9 / probesTotal

  /** Group membership size for the group containing `ref` (tests/diagnostics). */
  def groupSizeOf(ref: BlockRef): Option[Int] = refToGroup.get(ref).map(_.members.size)

  /** Remove one logical block (Sec. 4.3 Removal): drop it from its group;
    * the representative never changes; a group whose sole remaining member
    * was the representative's own ref disappears with it.
    */
  def removeBlock(ref: BlockRef): Boolean = refToGroup.remove(ref) match {
    case None => false
    case Some(g) =>
      g.members -= ref
      mappingBuf.remove(ref)
      if (g.members.isEmpty) {
        config.matcher match {
          case m: SignatureMatcher =>
            m.keys(distinctBuf(g.repIdx).data).foreach(k => if (bySig.get(k).contains(g)) bySig.remove(k))
          case _ => ()
        }
        groups -= g
      }
      true
  }

  /** Remove every block of a tensor (model removal = per-tensor removal). */
  def removeTensor(tensorId: Int): Int = {
    val refs = refToGroup.keys.filter(_.tensorId == tensorId).toVector
    refs.count(removeBlock)
  }
}
