package repro.core

/** Equivalent classes of distinct tensor blocks (Sec. 5.3): blocks owned by
  * the same set of tensors are interchangeable for page packing.
  */
object EquivalentClass {

  /** owners(item) -> tensor set; returns classes keyed by the owning-tensor
    * set, items in ascending order for determinism.
    */
  def classesLocal(owners: Map[Int, Set[Int]]): Map[Set[Int], Vector[Int]] =
    owners.toVector
      .groupBy(_._2)
      .map { case (ts, pairs) => ts -> pairs.map(_._1).sorted }
}
