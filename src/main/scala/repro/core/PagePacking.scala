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

  /** A packing problem: each tensor's logical item list and the page
    * capacity. Everything else derives from the lists: a tensor's items are
    * its list's first occurrences, and an item's owners are the tensors that
    * list it, so the equivalent classes (Sec. 5.3) follow too.
    *
    * @param logical tensorId -> the item (L index) of each of its logical
    *                blocks in storage order, duplicates kept (a tensor whose
    *                two positions dedup to one distinct block lists it
    *                twice). The default paging baseline packs THIS sequence
    *                — that is what "pack in write order" means physically.
    * @param l       page capacity in blocks
    */
  final case class Problem(logical: Map[Int, Vector[Int]], l: Int) {
    require(l > 0, "page capacity must be positive")

    /** tensorId -> its items in storage order: the first occurrences of its
      * logical list.
      */
    val tensors: Map[Int, Vector[Int]] = logical.map { case (t, seq) => t -> seq.distinct }

    /** item -> the tensors that list it. */
    lazy val owners: Map[Int, Set[Int]] = {
      val acc = mutable.HashMap.empty[Int, Set[Int]]
      for ((t, items) <- tensors; i <- items) acc(i) = acc.getOrElse(i, Set.empty[Int]) + t
      acc.toMap
    }

    /** The equivalent classes (Sec. 5.3): items grouped by owner set, each
      * class's items ascending. Computed per call, not kept.
      */
    def classes: Map[Set[Int], Vector[Int]] =
      owners.toVector.groupBy(_._2).map { case (ts, pairs) => ts -> pairs.map(_._1).sorted }

    def sharingFreq(item: Int): Int = owners.get(item).fold(0)(_.size)

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
      Problem(logical.view.mapValues(_.filter(items)).filter(_._2.nonEmpty).toMap, l)
  }

  object Problem {
    /** Derive a problem from a dedup index: the item order of a tensor is the
      * first-occurrence order of its distinct blocks when its logical blocks
      * are visited in row-major BlockId order, which is the order the index
      * keeps them in.
      */
    def fromDedup(idx: DedupIndex, l: Int): Problem = Problem(idx.logicalItems, l)
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

    /** Tensor t's items that lie on none of the `contained` pages (indices
      * into distinctPages, as `pagesOf` returns them), in t's item order.
      */
    def uncovered(p: Problem, t: Int, contained: Seq[Int]): Vector[Int] = {
      val covered = mutable.BitSet.empty
      contained.foreach(covered ++= distinctPages(_))
      p.tensors(t).filterNot(covered)
    }

    /** Constraint (5): the union of tensor-contained pages is exactly the set. */
    def coversExactly(p: Problem, t: Int): Boolean = uncovered(p, t, pagesOf(p, t)).isEmpty

    def capacityRespected(l: Int): Boolean = pages.forall(_.size <= l)
  }

  // -----------------------------------------------------------------------
  // Baseline: pack each tensor's blocks in storage order, then eliminate
  // pages holding the same set of blocks (default paging + page dedup).
  // -----------------------------------------------------------------------
  def baseline(p: Problem): Packing = {
    val pages = p.tensors.keys.toVector.sorted.flatMap { t =>
      p.logical(t).grouped(p.l).toVector.map(_.distinct)
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
    val classes = p.classes.toVector.sortBy { case (ts, items) =>
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
  // each step re-packs the tensors present so far, reusing the current
  // scheme's pages, and diffs page sets against it.
  // -----------------------------------------------------------------------
  final case class OnlineStep(tensorId: Int, reused: Int, discarded: Int, created: Int)
  final case class OnlineResult(steps: Vector[OnlineStep], finalPacking: Packing)

  /** Packs `p` restricted to each prefix of `arrival` (tensor ids) in turn,
    * each step reusing the previous step's pages, and counts each step's
    * page diff.
    */
  def online(p: Problem, arrival: Seq[Int]): OnlineResult = {
    require(arrival.distinct.size == arrival.size && arrival.forall(p.logical.contains),
      s"arrival must list distinct tensors of the problem: ${arrival.mkString(", ")}")
    var currentPages = Vector.empty[Set[Int]]
    val steps = arrival.indices.map { k =>
      val present = Problem(arrival.take(k + 1).map(t => t -> p.logical(t)).toMap, p.l)
      val prev = currentPages
      val next = twoStageReusing(present, prev).distinctPages
      currentPages = next
      OnlineStep(arrival(k), reused = next.count(prev.contains), discarded = prev.count(!next.contains(_)),
        created = next.count(!prev.contains(_)))
    }
    OnlineResult(steps.toVector, Packing(currentPages.map(_.toVector.sorted)))
  }
}
