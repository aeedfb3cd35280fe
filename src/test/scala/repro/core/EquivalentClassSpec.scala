package repro.core

import org.scalatest.funsuite.AnyFunSuite

class EquivalentClassSpec extends AnyFunSuite {

  test("classesLocal groups items by identical owner sets") {
    val owners = Map(0 -> Set(1), 1 -> Set(1, 2), 2 -> Set(1), 3 -> Set(2), 4 -> Set(1, 2))
    val cls = EquivalentClass.classesLocal(owners)
    assert(cls(Set(1)) == Vector(0, 2))
    assert(cls(Set(1, 2)) == Vector(1, 4))
    assert(cls(Set(2)) == Vector(3))
    assert(cls.size == 3)
  }

  test("classesLocal of empty ownership is empty") {
    assert(EquivalentClass.classesLocal(Map.empty).isEmpty)
  }

  test("classesLocal: every item appears in exactly one class") {
    val owners = (0 until 50).map(i => i -> Set(i % 3, i % 4)).toMap
    val cls = EquivalentClass.classesLocal(owners)
    val all = cls.values.flatten.toVector
    assert(all.sorted == (0 until 50).toVector)
  }
}
