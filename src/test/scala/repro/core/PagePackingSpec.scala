package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.PagePacking._
import scala.util.Random

class PagePackingSpec extends AnyFunSuite {

  /** Fig. 3/4 scenario: two tensors, 4 private blocks each (classes C1, C2)
    * and 12 shared blocks (C3), page capacity 4, shared blocks interleaved
    * with private ones in storage order so baseline pages never align.
    */
  private val fig3: Problem = {
    val c1 = (0 to 3).toVector       // private to t1
    val c2 = (4 to 7).toVector       // private to t2
    val c3 = (8 to 19).toVector      // shared
    val t1 = Vector(0, 8, 9, 10, 1, 11, 12, 13, 2, 14, 15, 16, 3, 17, 18, 19)
    val t2 = Vector(4, 8, 9, 10, 5, 11, 12, 13, 6, 14, 15, 16, 7, 17, 18, 19)
    assert(t1.toSet == (c1 ++ c3).toSet && t2.toSet == (c2 ++ c3).toSet)
    Problem(Map(1 -> t1, 2 -> t2), l = 4)
  }

  /** Fig. 5 scenario: three singleton classes C1 {shared}, C6 {t1 only},
    * C2 {t2 only}, capacity 2.
    */
  private val fig5: Problem = Problem(Map(1 -> Vector(0, 1), 2 -> Vector(0, 2)), l = 2)

  private val allAlgs: Seq[(String, Problem => Packing)] = Seq(
    "baseline" -> baseline, "greedy1" -> greedy1, "greedy2" -> greedy2, "twoStage" -> twoStage)

  test("Fig. 3: baseline needs 8 pages, class-based schemes need 5") {
    assert(baseline(fig3).numDistinctPages == 8)
    assert(greedy1(fig3).numDistinctPages == 5)
    assert(twoStage(fig3).numDistinctPages == 5)
  }

  test("Fig. 3: every algorithm satisfies exact cover and capacity") {
    for ((name, alg) <- allAlgs) {
      val pk = alg(fig3)
      assert(pk.capacityRespected(fig3.l), s"$name capacity")
      for (t <- fig3.tensors.keys)
        assert(pk.coversExactly(fig3, t), s"$name does not exactly cover tensor $t")
    }
  }

  test("Fig. 5: greedy1 leaves 3 non-full pages, two-stage repacks into 2") {
    assert(greedy1(fig5).numDistinctPages == 3)
    val ts = twoStage(fig5)
    assert(ts.numDistinctPages == 2)
    assert(ts.distinctPages.toSet == Set(Set(0, 1), Set(0, 2)))
    assert(fig5.tensors.keys.forall(ts.coversExactly(fig5, _)))
  }

  test("greedy2 reuses pages that are maximal subsets of later tensors") {
    // t1 = {0,1,2,3}, t2 = {0,1,2,3,4,5}: t1's pages should be reused whole.
    val p = Problem(Map(1 -> Vector(0, 1, 2, 3), 2 -> Vector(0, 1, 2, 3, 4, 5)), l = 2)
    val pk = greedy2(p)
    assert(pk.numDistinctPages == 3) // {0,1},{2,3} shared + {4,5} for t2
    assert(p.tensors.keys.forall(pk.coversExactly(p, _)))
  }

  test("hottest-block-first: greedy2 packs high-frequency items together") {
    // Three tensors share items 0,1; each also has two private items. l=2.
    val p = Problem(Map(1 -> Vector(2, 0, 3, 1), 2 -> Vector(4, 0, 5, 1), 3 -> Vector(6, 0, 7, 1)), l = 2)
    val pk = greedy2(p)
    // First tensor packs [0,1] (freq 3) together; later tensors reuse it.
    assert(pk.distinctPages.contains(Set(0, 1)))
    assert(pk.numDistinctPages == 4) // {0,1} + three private pairs
  }

  test("single tensor: all algorithms produce ceil(n/l) pages") {
    val items = (0 until 10).toVector
    val p = Problem(Map(1 -> items), l = 4)
    for ((name, alg) <- allAlgs)
      assert(alg(p).numDistinctPages == 3, s"$name")
  }

  test("baseline identical-page elimination dedups aligned tensors") {
    // Two tensors with identical item lists: baseline stores each page once.
    val items = (0 until 8).toVector
    val p = Problem(Map(1 -> items, 2 -> items), l = 4)
    assert(baseline(p).numDistinctPages == 2)
  }

  test("capacity 1 degenerates to one page per item (shared pages shared)") {
    val p = Problem(Map(1 -> Vector(0, 1), 2 -> Vector(0)), l = 1)
    for ((name, alg) <- Seq("greedy1" -> greedy1 _, "twoStage" -> twoStage _)) {
      val pk = alg(p)
      assert(pk.numDistinctPages == 2, s"$name: ${pk.distinctPages}")
      assert(p.tensors.keys.forall(pk.coversExactly(p, _)), name)
    }
  }

  test("Problem rejects a non-positive capacity; duplicate items stay logical") {
    intercept[IllegalArgumentException](Problem(Map(1 -> Vector(0)), l = 0))
    val p = Problem(Map(1 -> Vector(3, 0, 3, 2, 0)), l = 2)
    assert(p.logical(1) == Vector(3, 0, 3, 2, 0))
    assert(p.tensors(1) == Vector(3, 0, 2))
    assert(p.owners == Map(0 -> Set(1), 2 -> Set(1), 3 -> Set(1)))
    assert(baseline(p).pages == Vector(Vector(3, 0), Vector(3, 2), Vector(0)))
  }

  test("restrict keeps only the chosen items and drops emptied tensors") {
    val p = fig3.restrict(Set(0, 1, 2, 3))
    assert(p.tensors.keySet == Set(1))
    assert(p.tensors(1) == Vector(0, 1, 2, 3))
    assert(p.owners.keySet == Set(0, 1, 2, 3))
  }

  test("coversExactly detects a broken packing") {
    // Page mixes t1-private and t2-private items: neither tensor can use it.
    val p = Problem(Map(1 -> Vector(0), 2 -> Vector(1)), l = 2)
    val broken = Packing(Vector(Vector(0, 1)))
    assert(!broken.coversExactly(p, 1))
    assert(!broken.coversExactly(p, 2))
  }

  test("property: random problems — all algorithms are correct, two-stage <= greedy1") {
    val rnd = new Random(42)
    for (trial <- 1 to 25; p <- PagePackingSpec.randomProblem(rnd)) {
      val results = allAlgs.map { case (name, alg) =>
        val pk = alg(p)
        assert(pk.capacityRespected(p.l), s"trial $trial $name capacity")
        for (t <- p.tensors.keys)
          assert(pk.coversExactly(p, t), s"trial $trial $name tensor $t not covered")
        name -> pk.numDistinctPages
      }.toMap
      assert(results("twoStage") <= results("greedy1"),
        s"trial $trial: twoStage ${results("twoStage")} > greedy1 ${results("greedy1")}")
    }
  }

  test("online: first tensor creates ceil(n/l) pages from scratch") {
    val r = online(Problem(Map(1 -> (0 until 8).toVector), l = 4), Vector(1))
    assert(r.steps == Vector(OnlineStep(1, reused = 0, discarded = 0, created = 2)))
  }

  test("online: an identical second tensor reuses every page") {
    val items = (0 until 8).toVector
    val r = online(Problem(Map(1 -> items, 2 -> items), l = 4), Vector(1, 2))
    val s2 = r.steps(1)
    assert(s2.reused == 2 && s2.discarded == 0 && s2.created == 0)
  }

  test("online: a partially-overlapping tensor reorganizes some pages") {
    val shared = (0 until 8).toVector
    val priv = (8 until 12).toVector
    val r = online(Problem(Map(1 -> shared, 2 -> (shared ++ priv)), l = 4), Vector(1, 2))
    val s2 = r.steps(1)
    // Shared pages unchanged (same classes); private pages created.
    assert(s2.reused == 2 && s2.created == 1 && s2.discarded == 0, s"$s2")
    assert(r.finalPacking.numDistinctPages == 3)
  }

  test("online final packing satisfies exact cover") {
    val rnd = new Random(7)
    val owners = (0 until 20).map(i => i -> rnd.shuffle(Vector(1, 2, 3)).take(1 + rnd.nextInt(3)).toSet).toMap
    val p = Problem((1 to 3).map { t =>
      t -> owners.collect { case (i, ts) if ts(t) => i }.toVector.sorted
    }.filter(_._2.nonEmpty).toMap, l = 3)
    val r = online(p, p.tensors.keys.toVector.sorted)
    assert(r.steps.map(_.tensorId) == p.tensors.keys.toVector.sorted)
    assert(p.tensors.keys.forall(r.finalPacking.coversExactly(p, _)))
  }

  test("online packs each arrival prefix as twoStageReusing does and rejects a bad arrival") {
    val rnd = new Random(17)
    for (trial <- 1 to 25; p <- PagePackingSpec.randomProblem(rnd)) {
      val arrival = rnd.shuffle(p.tensors.keys.toVector)
      val r = online(p, arrival)
      var pages = Vector.empty[Set[Int]]
      for ((step, k) <- r.steps.zipWithIndex) {
        val present = arrival.take(k + 1).toSet
        val next = twoStageReusing(Problem(p.logical.filter(e => present(e._1)), p.l), pages).distinctPages
        assert(step == OnlineStep(arrival(k), next.count(pages.contains), pages.count(!next.contains(_)),
          next.count(!pages.contains(_))), s"trial $trial step $k")
        pages = next
      }
      assert(r.finalPacking.distinctPages.toSet == pages.toSet, s"trial $trial")
      intercept[IllegalArgumentException](online(p, arrival :+ 99))
      intercept[IllegalArgumentException](online(p, arrival :+ arrival.head))
    }
  }

  test("property: byPosition equals a tuple sortBy on (first position in the lowest-id tensor, item)") {
    val rnd = new Random(11)
    var checked = 0
    while (checked < 300) PagePackingSpec.randomProblem(rnd).foreach { p =>
      val rank = scala.collection.mutable.HashMap.empty[Int, Int]
      for ((_, items) <- p.tensors.toSeq.sortBy(_._1); (item, i) <- items.zipWithIndex)
        if (!rank.contains(item)) rank(item) = i
      // A class's items, plus items no tensor lists (ranked last, by item).
      val extra = Vector.fill(rnd.nextInt(3))(p.owners.size + rnd.nextInt(50))
      val items = rnd.shuffle(p.owners.keys.toVector.filter(_ => rnd.nextBoolean()) ++ extra.distinct)
      assert(p.byPosition(items) == items.sortBy(i => (rank.getOrElse(i, Int.MaxValue), i)), s"$p: $items")
      checked += 1
    }
  }

  test("fromDedup orders a tensor's items by BlockId and removes intra-tensor dups") {
    val dim = 8
    def vec(seed: Int) = { val r = new Random(seed); Array.fill(dim)(r.nextGaussian()) }
    val dup = vec(1)
    val t = Tensor(1, "t", 3, 1, Vector(
      TensorBlock(BlockRef(1, BlockId(0, 0)), dup, 8L),
      TensorBlock(BlockRef(1, BlockId(1, 0)), vec(2), 8L),
      TensorBlock(BlockRef(1, BlockId(2, 0)), dup.clone(), 8L)))
    val idx = Detectors.proposed(dim)
    idx.addModel(Seq(t), None)
    val p = Problem.fromDedup(idx, l = 4)
    assert(p.tensors(1).size == 2) // dup collapsed
    assert(p.tensors(1).head == idx.mapping(BlockRef(1, BlockId(0, 0))))
    assert(p.owners.keySet == p.tensors(1).toSet)
  }

  test("property: owners invert the item lists, classes partition items by owner set, restrict filters owners") {
    val rnd = new Random(23)
    for (trial <- 1 to 50; (drawn, q) <- PagePackingSpec.randomOwnedProblem(rnd)) {
      // Repeat some items inside each list: ownership must not change.
      val p = Problem(q.logical.map { case (t, items) =>
        t -> items.flatMap(i => if (rnd.nextInt(4) == 0) Vector(i, i) else Vector(i))
      }, q.l)
      val ctx = s"trial $trial: $p"
      assert(p.tensors == q.tensors, ctx)
      assert(p.owners == drawn, ctx)
      for ((i, ts) <- p.owners; t <- p.tensors.keys)
        assert(ts(t) == p.tensors(t).contains(i), s"$ctx: item $i, tensor $t")

      val classes = p.classes
      assert(classes.values.flatten.toVector.sorted == p.owners.keys.toVector.sorted, ctx)
      for ((ts, items) <- classes) {
        assert(items.nonEmpty && items == items.sorted, s"$ctx: class $ts")
        assert(items.forall(p.owners(_) == ts), s"$ctx: class $ts")
      }

      val kept = p.owners.keySet.filter(_ => rnd.nextBoolean())
      val r = p.restrict(kept)
      assert(r.owners == p.owners.filter(e => kept(e._1)), s"$ctx: restricted to $kept")
      assert(r.tensors == p.tensors.map(e => e._1 -> e._2.filter(kept)).filter(_._2.nonEmpty), s"$ctx: $kept")
    }
  }
}

object PagePackingSpec {

  /** A seeded random packing problem: 2-5 tensors over 5-44 items, each item
    * owned by a random non-empty tensor subset, capacity 1-5; `None` when no
    * tensor drew an item.
    */
  def randomProblem(rnd: Random): Option[Problem] = randomOwnedProblem(rnd).map(_._2)

  /** `randomProblem` with the owner sets it drew: item -> owning tensors. */
  def randomOwnedProblem(rnd: Random): Option[(Map[Int, Set[Int]], Problem)] = {
    val nTensors = 2 + rnd.nextInt(4)
    val nItems = 5 + rnd.nextInt(40)
    val l = 1 + rnd.nextInt(5)
    val owners = (0 until nItems).map { i =>
      val k = 1 + rnd.nextInt(nTensors)
      i -> rnd.shuffle((1 to nTensors).toVector).take(k).toSet
    }.toMap
    val tensors = (1 to nTensors).flatMap { t =>
      val items = owners.collect { case (i, ts) if ts(t) => i }.toVector
      if (items.isEmpty) None else Some(t -> rnd.shuffle(items))
    }.toMap
    if (tensors.isEmpty) None else Some((owners, Problem(tensors, l)))
  }
}
