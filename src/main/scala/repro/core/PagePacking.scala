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

    /** Storage position of each item, indexed by item: its index in the item
      * list of its lowest-id tensor, or `Int.MaxValue` if no tensor lists it.
      * Packers chunk class items in this order so that positionally adjacent
      * blocks land on the same page — which is what makes pages reusable when
      * a model diverges on a contiguous region (online packing, Table 13).
      */
    private lazy val positionRank: Array[Int] = {
      val ids = tensors.keys.toArray
      java.util.Arrays.sort(ids)
      var min = 0; var max = -1
      var t = 0
      while (t < ids.length) {
        val it = tensors(ids(t)).iterator
        while (it.hasNext) { val item = it.next(); min = math.min(min, item); max = math.max(max, item) }
        t += 1
      }
      requireNonNegative(min)
      val rank = new Array[Int](max + 1)
      java.util.Arrays.fill(rank, Int.MaxValue)
      t = 0
      while (t < ids.length) {
        val it = tensors(ids(t)).iterator
        var pos = 0
        while (it.hasNext) {
          val item = it.next()
          if (rank(item) == Int.MaxValue) rank(item) = pos
          pos += 1
        }
        t += 1
      }
      rank
    }

    /** `items` by (storage position, item): one primitive sort of
      * `(rank << 32) | item`, which orders like the pair since both are
      * non-negative.
      */
    def byPosition(items: Seq[Int]): Vector[Int] = {
      val rank = positionRank
      val keys = new Array[Long](items.size)
      val it = items.iterator
      var min = 0
      var k = 0
      while (k < keys.length) {
        val item = it.next()
        min = math.min(min, item)
        val r = if (item >= 0 && item < rank.length) rank(item) else Int.MaxValue
        keys(k) = (r.toLong << 32) | item
        k += 1
      }
      requireNonNegative(min)
      java.util.Arrays.sort(keys)
      val out = Vector.newBuilder[Int]
      k = 0
      while (k < keys.length) { out += keys(k).toInt; k += 1 }
      out.result()
    }

    private def requireNonNegative(minItem: Int): Unit =
      require(minItem >= 0, s"items are indices into L, hence non-negative: $minItem")

    /** Restrict the problem to a subset of items (used by two-stage). */
    def restrict(items: Set[Int]): Problem =
      Problem(owners.view.filterKeys(items).toMap,
        tensors.view.mapValues(_.filter(items)).filter(_._2.nonEmpty).toMap, l)
  }

  object Problem {
    /** Derive a problem from a dedup index: the item order of a tensor is the
      * first-occurrence order of its distinct blocks when its logical blocks
      * are visited in row-major BlockId order, which is the order the index
      * keeps them in.
      */
    def fromDedup(idx: DedupIndex, l: Int): Problem = {
      val logical = idx.logicalItems
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

    /** Pages (indices into distinctPages) usable by tensor t: fully contained.
      * Items are indices into L, hence non-negative, so a bit set holds t's.
      */
    def pagesOf(p: Problem, t: Int): Vector[Int] = {
      val set = mutable.BitSet.empty ++= p.tensors(t)
      distinctPages.indices.filter(i => distinctPages(i).forall(set)).toVector
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
  // Stage 1 / Greedy-1 (Alg. 2): equivalent-class-based divide and conquer.
  // -----------------------------------------------------------------------

  /** Walks the equivalent classes once, larger class first, then by owner
    * key. Each class first adopts the `existing` pages that lie inside it
    * without overlapping one another (online packing keeps them), then
    * chunks its remaining items in storage order. Returns every page in that
    * order, flagged `true` when it is a fresh chunk.
    */
  private def stage1(p: Problem, existing: Vector[Set[Int]]): Vector[(Vector[Int], Boolean)] = {
    lazy val liveItems = {
      val live = mutable.BitSet.empty
      val tensors = p.tensors.valuesIterator
      while (tensors.hasNext) {
        val it = tensors.next().iterator
        while (it.hasNext) live += it.next()
      }
      live
    }
    val available = existing.distinct.filter(pg => pg.nonEmpty && pg.subsetOf(liveItems))
    val classes = EquivalentClass.classesLocal(p.owners).toVector.sortBy { case (ts, items) =>
      (-items.size, ts.toVector.sorted.mkString(","))
    }
    classes.flatMap { case (_, items) =>
      val itemSet = items.toSet
      val covered = mutable.Set.empty[Int]
      val adopted = available.filter { pg =>
        val fits = pg.subsetOf(itemSet) && pg.forall(i => !covered.contains(i))
        if (fits) covered ++= pg
        fits
      }
      adopted.map(pg => (pg.toVector.sorted, false)) ++
        p.byPosition(items.filterNot(covered)).grouped(p.l).map((_, true))
    }
  }

  def greedy1(p: Problem): Packing = Packing(stage1(p, Vector.empty).map(_._1))

  // -----------------------------------------------------------------------
  // Greedy-2 (Alg. 3): largest-tensor-first, reuse maximal page subsets,
  // hottest-block-first within the remainder.
  // -----------------------------------------------------------------------
  def greedy2(p: Problem): Packing = {
    val bins = mutable.ArrayBuffer.empty[Vector[Int]]
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
      bins ++= delta.sortBy(i => (-p.sharingFreq(i), i)).grouped(p.l)
    }
    Packing(bins.toVector)
  }

  // -----------------------------------------------------------------------
  // Two-stage (Sec. 5.3-5.4): stage 1, then the items stranded in its
  // non-full fresh pages are repacked with Alg. 3.
  // -----------------------------------------------------------------------
  def twoStage(p: Problem): Packing = twoStageReusing(p, Vector.empty)

  /** Two-stage packing that keeps the `existing` pages stage 1 adopts (Sec.
    * 5.4 "Online Packing": only the pages that need to change are repacked).
    * Stage 2 repacks the non-full fresh pages; its result replaces them only
    * if it needs no more distinct pages, else stage 1's pages stand in their
    * class order.
    */
  def twoStageReusing(p: Problem, existing: Vector[Set[Int]]): Packing = {
    val pages = stage1(p, existing)
    val stage1Packing = Packing(pages.map(_._1))
    val stranded = pages.collect { case (pg, true) if pg.size < p.l => pg }
    if (stranded.size <= 1) stage1Packing
    else {
      val kept = pages.collect { case (pg, fresh) if !fresh || pg.size == p.l => pg }
      val candidate = Packing(kept ++ greedy2(p.restrict(stranded.flatten.toSet)).pages)
      // Repacking can duplicate hot items across per-tensor pages; keep
      // stage 1 when that outweighs the non-full-page savings.
      if (candidate.numDistinctPages <= stage1Packing.numDistinctPages) candidate else stage1Packing
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
  def online(owners: Map[Int, Set[Int]], arrival: Vector[(Int, Vector[Int])], l: Int): OnlineResult = {
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
      val next = twoStageReusing(prob, currentPages).distinctPages
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
