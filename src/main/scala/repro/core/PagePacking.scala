package repro.core

import scala.collection.mutable

/** Packing distinct tensor blocks into fixed-capacity pages (Sec. 5).
  *
  * Items are distinct-block indices (into the dedup index's list L); a
  * tensor is the ordered list of items it contains; `l` is the page
  * capacity in blocks. Constraint (5): for every tensor there must be a
  * subset of pages whose item union is EXACTLY the tensor's item set —
  * pages may not mix a tensor's blocks with foreign blocks it would then
  * have to skip during scans. Items may be duplicated across pages.
  */
object PagePacking {

  /** A packing problem.
    *
    * @param owners  item -> set of owning tensor ids
    * @param tensors tensorId -> this tensor's items in storage order
    *                (first-occurrence order of its logical blocks), no dups
    * @param l       page capacity in blocks
    */
  final case class Problem(owners: Map[Int, Set[Int]], tensors: Map[Int, Vector[Int]], l: Int,
                           logicalTensors: Option[Map[Int, Vector[Int]]] = None) {
    require(l > 0, "page capacity must be positive")
    require(tensors.values.forall(v => v.distinct.size == v.size), "tensor item lists must be dup-free")

    /** The tensor's logical block sequence mapped to items, duplicates kept
      * (a tensor whose two positions dedup to one distinct block lists it
      * twice). The default paging baseline packs THIS sequence — that is
      * what "pack in write order" means physically.
      */
    def logicalOf(t: Int): Vector[Int] = logicalTensors.getOrElse(tensors)(t)

    def sharingFreq(item: Int): Int = owners.getOrElse(item, Set.empty).size

    /** Storage position of each item: its index in the item list of its
      * lowest-id owning tensor. Packers chunk class items in this order so
      * that positionally adjacent blocks land on the same page — which is
      * what makes pages reusable when a model diverges on a contiguous
      * region (online packing, Table 13).
      */
    lazy val positionRank: Map[Int, Int] = {
      val rank = scala.collection.mutable.HashMap.empty[Int, Int]
      for ((_, items) <- tensors.toSeq.sortBy(_._1); (item, i) <- items.zipWithIndex)
        if (!rank.contains(item)) rank(item) = i
      rank.toMap
    }

    def byPosition(items: Seq[Int]): Vector[Int] =
      items.toVector.sortBy(i => (positionRank.getOrElse(i, Int.MaxValue), i))

    /** Restrict the problem to a subset of items (used by two-stage). */
    def restrict(items: Set[Int]): Problem =
      Problem(owners.view.filterKeys(items).toMap,
        tensors.view.mapValues(_.filter(items)).filter(_._2.nonEmpty).toMap, l)
  }

  object Problem {
    /** Derive a problem from a dedup index: the item order of a tensor is the
      * first-occurrence order of its distinct blocks when its logical blocks
      * are visited in row-major BlockId order.
      */
    def fromDedup(idx: DedupIndex, l: Int): Problem = {
      val mapping = idx.mapping
      val byTensor = mapping.toVector.groupBy(_._1.tensorId)
      val logical = byTensor.map { case (tid, refs) =>
        tid -> refs.sortBy { case (r, _) => (r.blockId.row, r.blockId.col) }.map(_._2)
      }
      val tensors = logical.map { case (tid, seq) => tid -> seq.distinct }
      Problem(idx.owners, tensors, l, Some(logical))
    }
  }

  /** A packing scheme: each page is the vector of items it holds. */
  final case class Packing(pages: Vector[Vector[Int]]) {
    def numPages: Int = pages.size

    /** Physically stored pages after identical-page elimination; computed
      * once, since `pagesOf` and `coversExactly` index into it per page.
      */
    lazy val distinctPages: Vector[Set[Int]] = pages.map(_.toSet).distinct

    def numDistinctPages: Int = distinctPages.size

    /** Pages (indices into distinctPages) usable by tensor t: fully contained. */
    def pagesOf(p: Problem, t: Int): Vector[Int] = {
      val set = p.tensors(t).toSet
      distinctPages.zipWithIndex.collect { case (pg, i) if pg.subsetOf(set) => i }
    }

    /** Constraint (5): the union of tensor-contained pages is exactly the set. */
    def coversExactly(p: Problem, t: Int): Boolean = {
      val set = p.tensors(t).toSet
      val union = pagesOf(p, t).iterator.map(distinctPages).foldLeft(Set.empty[Int])(_ ++ _)
      union == set
    }

    def capacityRespected(l: Int): Boolean = pages.forall(_.size <= l)
  }

  // -----------------------------------------------------------------------
  // Baseline: pack each tensor's blocks in storage order, then eliminate
  // pages holding the same set of blocks (default paging + page dedup).
  // -----------------------------------------------------------------------
  def baseline(p: Problem): Packing = {
    val pages = p.tensors.keys.toVector.sorted.flatMap { t =>
      p.logicalOf(t).grouped(p.l).toVector.map(_.distinct)
    }
    // Identical-page elimination is applied by numDistinctPages; keep the raw
    // pages so coversExactly sees every tensor's own layout.
    Packing(pages)
  }

  // -----------------------------------------------------------------------
  // Greedy-1 (Alg. 2): equivalent-class-based divide and conquer.
  // -----------------------------------------------------------------------
  def greedy1(p: Problem): Packing = {
    val classes = EquivalentClass.classesLocal(p.owners)
    // Deterministic class order: larger classes first, then by owner key.
    val ordered = classes.toVector.sortBy { case (ts, items) =>
      (-items.size, ts.toVector.sorted.mkString(","))
    }
    Packing(ordered.flatMap { case (_, items) => p.byPosition(items).grouped(p.l).toVector })
  }

  // -----------------------------------------------------------------------
  // Greedy-2 (Alg. 3): largest-tensor-first, reuse maximal page subsets,
  // hottest-block-first within the remainder.
  // -----------------------------------------------------------------------
  def greedy2(p: Problem): Packing = greedy2Into(p, Vector.empty)

  /** Alg. 3 seeded with pre-existing pages (used by the two-stage strategy's
    * second stage and by online packing). Existing pages are candidates for
    * reuse but are not re-emitted; only newly created pages are returned.
    */
  private def greedy2Into(p: Problem, preexisting: Vector[Vector[Int]]): Packing = {
    val bins = mutable.ArrayBuffer[Vector[Int]](preexisting: _*)
    val created = mutable.ArrayBuffer.empty[Vector[Int]]
    val order = p.tensors.toVector.sortBy { case (tid, items) => (-items.size, tid) }
    for ((_, items) <- order) {
      val set = items.toSet
      // Greedy maximal-subset cover from existing bins.
      val covered = mutable.Set.empty[Int]
      var progress = true
      while (progress) {
        progress = false
        var best: Vector[Int] = null
        var bestGain = 0
        for (b <- bins if b.forall(set.contains)) {
          val gain = b.count(i => !covered.contains(i))
          if (gain > bestGain) { bestGain = gain; best = b }
        }
        if (best != null) { covered ++= best; progress = true }
      }
      val delta = items.filterNot(covered)
      if (delta.nonEmpty) {
        val byFreq = delta.sortBy(i => (-p.sharingFreq(i), i))
        for (page <- byFreq.grouped(p.l)) {
          bins += page.toVector
          created += page.toVector
        }
      }
    }
    Packing(preexisting ++ created)
  }

  // -----------------------------------------------------------------------
  // Two-stage (Sec. 5.4): Alg. 2 first; items stranded in non-full pages are
  // repacked with Alg. 3.
  // -----------------------------------------------------------------------
  def twoStage(p: Problem): Packing = {
    val stage1 = greedy1(p)
    val (full, nonFull) = stage1.pages.partition(_.size == p.l)
    if (nonFull.size <= 1) return stage1
    val strandedItems = nonFull.flatten.toSet
    val sub = p.restrict(strandedItems)
    val stage2 = greedy2(sub)
    val candidate = Packing(full ++ stage2.pages)
    // Repacking can duplicate hot items across per-tensor pages; keep the
    // stage-1 scheme when that outweighs the non-full-page savings.
    if (candidate.numDistinctPages <= stage1.numDistinctPages) candidate else stage1
  }

  /** Two-stage packing that prefers to KEEP existing pages (Sec. 5.4
    * "Online Packing": only the pages that need to change are repacked).
    * Stage 1 first adopts any existing page whose items all fall inside the
    * current equivalent class (and don't double-cover), then chunks only the
    * remainder; stage 2 repacks the non-full fresh pages as usual.
    */
  def twoStageReusing(p: Problem, existing: Vector[Set[Int]]): Packing = {
    val classes = EquivalentClass.classesLocal(p.owners).toVector.sortBy { case (ts, items) =>
      (-items.size, ts.toVector.sorted.mkString(","))
    }
    val liveItems = p.tensors.values.flatten.toSet
    val available = existing.distinct.filter(pg => pg.nonEmpty && pg.subsetOf(liveItems))
    val reused = mutable.ArrayBuffer.empty[Vector[Int]]
    val fresh = mutable.ArrayBuffer.empty[Vector[Int]]
    for ((_, items) <- classes) {
      val itemSet = items.toSet
      val covered = mutable.Set.empty[Int]
      for (pg <- available if pg.subsetOf(itemSet) && pg.forall(i => !covered.contains(i))) {
        reused += pg.toVector.sorted
        covered ++= pg
      }
      fresh ++= p.byPosition(items.filterNot(covered)).grouped(p.l).map(_.toVector)
    }
    val (full, nonFull) = fresh.partition(_.size == p.l)
    val base = (reused ++ full).toVector
    if (nonFull.size <= 1) Packing(base ++ nonFull)
    else {
      val sub = p.restrict(nonFull.flatten.toSet)
      val candidate = Packing(base ++ greedy2(sub).pages)
      val plain = Packing(base ++ nonFull)
      if (candidate.numDistinctPages <= plain.numDistinctPages) candidate else plain
    }
  }

  // -----------------------------------------------------------------------
  // Online packing (Sec. 5.4 "Online Packing"): add tensors one at a time;
  // each step re-runs the packer over the new tensor plus all related
  // tensors and diffs page sets against the current scheme.
  // -----------------------------------------------------------------------
  final case class OnlineStep(tensorId: Int, reused: Int, discarded: Int, created: Int)
  final case class OnlineResult(steps: Vector[OnlineStep], finalPacking: Packing)

  /** @param arrival tensors in arrival order as (tensorId, items);
    *                owners must describe the FINAL ownership (the index knows,
    *                at each step, which earlier tensors share each block).
    */
  def online(owners: Map[Int, Set[Int]], arrival: Vector[(Int, Vector[Int])], l: Int,
             packer: (Problem, Vector[Set[Int]]) => Packing = twoStageReusing): OnlineResult = {
    var currentPages = Vector.empty[Set[Int]]
    val steps = mutable.ArrayBuffer.empty[OnlineStep]
    val seen = mutable.ArrayBuffer.empty[(Int, Vector[Int])]
    for ((tid, items) <- arrival) {
      seen += ((tid, items))
      val presentTensors = seen.map(_._1).toSet
      // Ownership restricted to tensors present so far.
      val presentOwners = seen.flatMap(_._2).distinct.map { i =>
        i -> owners(i).intersect(presentTensors)
      }.toMap
      val prob = Problem(presentOwners, seen.toMap, l)
      val next = packer(prob, currentPages).distinctPages
      val prev = currentPages
      val reused = next.count(prev.contains)
      val discarded = prev.count(pg => !next.contains(pg))
      val created = next.count(pg => !prev.contains(pg))
      steps += OnlineStep(tid, reused, discarded, created)
      currentPages = next
    }
    OnlineResult(steps.toVector, Packing(currentPages.map(_.toVector.sorted)))
  }
}
