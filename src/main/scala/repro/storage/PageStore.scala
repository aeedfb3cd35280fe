package repro.storage

import repro.core.PagePacking.{Packing, Problem}
import scala.collection.mutable

/** Global physical page identifier. */
final case class PageId(value: Int) extends AnyVal

/** One stored page: the distinct-block items it holds and its size. */
final case class StoredPage(id: PageId, items: Set[Int], bytes: Long)

/** The tensor-aware page store (Sec. 3). It keeps one fact per page: the
  * tensors that own it. A page with one owner is that tensor's private page,
  * a page with more is shared, and its reference count is its number of
  * owners. Removing a tensor drops it from its pages' owner sets and deletes
  * the pages left with no owner; a shared page whose other owners are gone
  * is private from then on. An update is a removal, a re-pack and a load.
  */
final class PageStore(val pageBytes: Long) {
  require(pageBytes > 0, s"page size must be positive: pageBytes = $pageBytes")

  /** Pages by `PageId.value`, which `load` assigns densely; null once removed. */
  private var pages = Array.empty[StoredPage]
  /** The ownership record: the tensors owning each page, by `PageId.value`. */
  private var ownersOf = Array.empty[Set[Int]]
  /** Each tensor's pages, in PageId order. */
  private val pagesOfTensor = mutable.HashMap.empty[Int, Vector[PageId]]
  private var live = 0

  /** Materialize a packing scheme into an empty store: one stored page per
    * distinct page, owned by every tensor whose item set contains it. Fails
    * when those pages do not cover a tensor's items (constraint 5).
    */
  def load(packing: Packing, problem: Problem): Unit = {
    require(live == 0 && pagesOfTensor.isEmpty, "load expects an empty store")
    val distinct = packing.distinctPages
    pages = Array.tabulate(distinct.size)(i => StoredPage(PageId(i), distinct(i), pageBytes))
    ownersOf = Array.fill(distinct.size)(Set.empty[Int])
    live = distinct.size
    for (t <- problem.tensors.keys) {
      val contained = packing.pagesOf(problem, t)
      val missing = packing.uncovered(problem, t, contained)
      require(missing.isEmpty, s"packing does not exactly cover tensor $t (constraint 5): " +
        s"${missing.size} items lie on no page inside it: ${missing.sorted.take(10).mkString(", ")}" +
        (if (missing.size > 10) ", ..." else ""))
      contained.foreach(pi => ownersOf(pi) += t)
      pagesOfTensor(t) = contained.map(PageId)
    }
  }

  def page(id: PageId): StoredPage = {
    val pg = if (pages.isDefinedAt(id.value)) pages(id.value) else null
    if (pg == null) throw new NoSuchElementException(s"no page $id")
    pg
  }
  def allPages: Vector[StoredPage] = pages.iterator.filter(_ != null).toVector
  def numPages: Int = live
  def totalBytes: Long = allPages.map(_.bytes).sum

  def owners(id: PageId): Set[Int] = if (ownersOf.isDefinedAt(id.value)) ownersOf(id.value) else Set.empty
  def refCount(id: PageId): Int = owners(id).size

  /** A page is shared when two or more tensors own it, else private. */
  def isShared(id: PageId): Boolean = refCount(id) > 1

  def privatePages(tensor: Int): Vector[PageId] = pagesOfTensor.getOrElse(tensor, Vector.empty).filterNot(isShared)
  def sharedPages(tensor: Int): Vector[PageId] = pagesOfTensor.getOrElse(tensor, Vector.empty).filter(isShared)

  /** Every page a tensor needs, private first then shared references. */
  def pagesOf(tensor: Int): Vector[PageId] = privatePages(tensor) ++ sharedPages(tensor)

  def tensors: Set[Int] = pagesOfTensor.keySet.toSet

  /** Remove a tensor (Sec. 3 "Model Removal and Updates"). */
  def removeTensor(tensor: Int): Unit =
    for (id <- pagesOfTensor.remove(tensor).getOrElse(Vector.empty)) {
      ownersOf(id.value) -= tensor
      if (ownersOf(id.value).isEmpty) { pages(id.value) = null; live -= 1 }
    }
}
