package repro.core

import scala.collection.mutable

/** Reference for `DedupIndex`, keyed by logical block the direct way: F is
  * one map from every live `BlockRef` to its L index, a second map gives each
  * ref's group, and each group keeps its member refs. Removal filters every
  * live ref by tensor and rehashes a dying group's representative to find its
  * index keys; `owners` and `Problem` are rebuilt from F by `groupBy`. The
  * index keys are strings (`ReferenceDedupIndex.stringKeys`), not
  * `BandKey`s. The exam key is the 3rd quartile of a fully sorted |v|, and
  * the exam order a boxed `sortBy`. The differential property in
  * `DedupDifferentialSpec` drives both indexes with the same steps.
  */
final class ReferenceDedupIndex(val config: DedupConfig) {
  import ReferenceDedupIndex.stringKeys

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
        val keys = stringKeys(m.hasher.signature(block.data).values, m.bands)
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

  /** The 3rd quartile of |v| read from a fully sorted copy. */
  private def sortedThirdQuartile(v: Array[Double]): Double = {
    val abs = v.map(math.abs)
    java.util.Arrays.sort(abs)
    if (abs.length == 1) return abs(0)
    val rank = 0.75 * (abs.length - 1)
    val lo = rank.toInt
    val hi = math.min(lo + 1, abs.length - 1)
    abs(lo) * (1 - (rank - lo)) + abs(hi) * (rank - lo)
  }

  /** Blocks in the order Alg. 1 examines them. Magnitude keys are computed
    * once per block; the sort is stable, so ties keep write order.
    */
  private def examOrder(blocks: Vector[TensorBlock]): Vector[TensorBlock] = config.order match {
    case ExamOrder.MagnitudeAscending =>
      val keys = blocks.map(b => sortedThirdQuartile(b.data))
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
            stringKeys(m.hasher.signature(distinctBuf(g.repIdx).data).values, m.bands)
              .foreach(k => if (bySig.get(k).contains(g)) bySig.remove(k))
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

  /** The packing problem, derived from F as `Problem.fromDedup` once did: a
    * tensor's logical items are its refs sorted row-major.
    */
  def problem(l: Int): PagePacking.Problem = {
    val byTensor = mappingBuf.toVector.groupBy(_._1.tensorId)
    val logical = byTensor.map { case (tid, refs) =>
      tid -> refs.sortBy { case (r, _) => (r.blockId.row, r.blockId.col) }.map(_._2)
    }
    PagePacking.Problem(logical, l)
  }
}

object ReferenceDedupIndex {
  /** Index keys as strings: each band of the signature becomes
    * "band:v1,v2,...". The encoding is injective, so two blocks share a key
    * exactly when they share a band number and that band's values.
    */
  def stringKeys(sig: Array[Int], bands: Int): Seq[String] =
    if (bands <= 1) Seq("0:" + sig.mkString(","))
    else sig.toVector.grouped(math.max(1, sig.length / bands)).zipWithIndex
      .map { case (chunk, i) => s"$i:${chunk.mkString(",")}" }.toSeq
}
