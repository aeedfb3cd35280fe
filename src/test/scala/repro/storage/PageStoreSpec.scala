package repro.storage

import org.scalatest.funsuite.AnyFunSuite
import repro.core.PagePackingSpec
import repro.core.PagePacking.{Packing, Problem, twoStage}
import scala.util.Random

class PageStoreSpec extends AnyFunSuite {

  /** Two tensors sharing items 0..3; items 4/5 private to t1, 6/7 to t2. */
  private def problem: Problem = Problem(Map(1 -> Vector(0, 1, 2, 3, 4, 5), 2 -> Vector(0, 1, 2, 3, 6, 7)), l = 2)

  private def loadedStore: (PageStore, Packing) = {
    val p = problem
    val pk = twoStage(p)
    val store = new PageStore(pageBytes = 64L << 20)
    store.load(pk, p)
    (store, pk)
  }

  test("load assigns shared pages to the shared sets of all owners") {
    val (store, _) = loadedStore
    assert(store.sharedPages(1).nonEmpty)
    assert(store.sharedPages(1).toSet == store.sharedPages(2).toSet)
    store.sharedPages(1).foreach(id => assert(store.refCount(id) == 2))
  }

  test("load assigns private pages with refcount 1") {
    val (store, _) = loadedStore
    for (t <- Seq(1, 2); id <- store.privatePages(t)) {
      assert(store.refCount(id) == 1)
      assert(store.owners(id) == Set(t))
    }
    assert(store.privatePages(1).nonEmpty && store.privatePages(2).nonEmpty)
  }

  test("pagesOf covers exactly the tensor's items") {
    val (store, _) = loadedStore
    val items1 = store.pagesOf(1).flatMap(id => store.page(id).items).toSet
    assert(items1 == problem.tensors(1).toSet)
  }

  test("numPages and totalBytes reflect distinct stored pages") {
    val (store, pk) = loadedStore
    assert(store.numPages == pk.numDistinctPages)
    assert(store.totalBytes == pk.numDistinctPages.toLong * (64L << 20))
  }

  test("removeTensor deletes private pages and decrements shared refcounts") {
    val (store, _) = loadedStore
    val sharedBefore = store.sharedPages(1)
    val privateBefore = store.privatePages(1)
    store.removeTensor(1)
    privateBefore.foreach(id => assert(store.refCount(id) == 0))
    assert(store.tensors == Set(2))
    // Shared pages demoted to t2's private set (refcount dropped to 1).
    sharedBefore.foreach { id =>
      assert(store.refCount(id) == 1)
      assert(store.privatePages(2).contains(id))
      assert(!store.sharedPages(2).contains(id))
    }
  }

  test("removing both tensors empties the store") {
    val (store, _) = loadedStore
    store.removeTensor(1); store.removeTensor(2)
    assert(store.numPages == 0)
    assert(store.tensors.isEmpty)
  }

  test("load fails when a packing does not exactly cover a tensor (constraint 5)") {
    // The no-dedup packing of the same two tensors: t2's items 6 and 7 lie on
    // no page inside t2's item set of the dedup problem.
    val plain = Problem(Map(1 -> (0 to 5).toVector, 2 -> (10 to 15).toVector), l = 2)
    val e = intercept[IllegalArgumentException] {
      new PageStore(pageBytes = 64L << 20).load(twoStage(plain), problem)
    }
    assert(e.getMessage.contains("tensor 2"), e.getMessage)
    assert(e.getMessage.contains("6, 7"), e.getMessage)
  }

  test("PageStore rejects a non-positive page size, naming it") {
    for (bytes <- Seq(0L, -1L)) {
      val e = intercept[IllegalArgumentException](new PageStore(pageBytes = bytes))
      assert(e.getMessage.contains(s"pageBytes = $bytes"), e.getMessage)
    }
  }

  test("property: random removal orders keep owners, refcounts and exact cover consistent") {
    val rnd = new Random(11)
    for (trial <- 1 to 25; p <- PagePackingSpec.randomProblem(rnd)) {
      val store = new PageStore(pageBytes = 1L)
      store.load(twoStage(p), p)
      var live = p.tensors.keySet
      for (t <- rnd.shuffle(p.tensors.keys.toVector)) {
        store.removeTensor(t)
        live -= t
        val ctx = s"trial $trial, after removing $t"
        assert(!store.tensors.contains(t), ctx)
        val ids = store.allPages.map(_.id)
        for (s <- live) {
          val items = store.pagesOf(s).map(store.page(_).items)
          assert(items.forall(_.subsetOf(p.tensors(s).toSet)) && items.flatten.toSet == p.tensors(s).toSet,
            s"$ctx: tensor $s not exactly covered")
          assert(store.privatePages(s).toSet == ids.filter(id => store.owners(id) == Set(s)).toSet, ctx)
          assert(store.sharedPages(s).toSet == ids.filter(id => store.owners(id)(s) && store.refCount(id) >= 2).toSet, ctx)
        }
        ids.foreach(id => assert(store.refCount(id) == store.owners(id).size, s"$ctx: page $id"))
        assert(store.numPages == ids.count(id => store.owners(id).nonEmpty), ctx)
      }
      assert(store.numPages == 0 && store.tensors.isEmpty, s"trial $trial")
    }
  }
}
