package repro.core

import org.scalatest.funsuite.AnyFunSuite

class TensorSpec extends AnyFunSuite {

  private def blk(t: Int, r: Int, c: Int, data: Array[Double], bytes: Long = 8L) =
    TensorBlock(BlockRef(t, BlockId(r, c)), data, bytes)

  test("BlockId.linear is row-major") {
    assert(BlockId(0, 0).linear(4) == 0)
    assert(BlockId(0, 3).linear(4) == 3)
    assert(BlockId(2, 1).linear(4) == 9)
  }

  test("tabulate builds a row-major grid with the right refs") {
    val t = Tensor.tabulate(7, "t", 2, 3, 2, 16L)((r, c) => Array(r.toDouble, c.toDouble))
    assert(t.numBlocks == 6)
    assert(t.block(1, 2).ref == BlockRef(7, BlockId(1, 2)))
    assert(t.block(1, 2).data.toSeq == Seq(1.0, 2.0))
    assert(t.blocks(5) == t.block(1, 2))
  }

  test("tabulate rejects wrong-dimension generators") {
    intercept[IllegalArgumentException] {
      Tensor.tabulate(0, "bad", 1, 1, 3, 8L)((_, _) => Array(1.0))
    }
  }

  test("virtualBytes sums block sizes") {
    val t = Tensor.tabulate(1, "t", 2, 2, 1, 100L)((_, _) => Array(0.0))
    assert(t.virtualBytes == 400L)
  }

  test("constructor rejects grid/blocks mismatch") {
    intercept[IllegalArgumentException] {
      Tensor(1, "bad", 2, 2, Vector(blk(1, 0, 0, Array(1.0))))
    }
  }

  test("l2 distance is euclidean and symmetric") {
    val a = blk(1, 0, 0, Array(0.0, 3.0))
    val b = blk(1, 0, 1, Array(4.0, 0.0))
    assert(math.abs(a.l2(b) - 5.0) < 1e-12)
    assert(a.l2(b) == b.l2(a))
    assert(a.l2(a) == 0.0)
  }

  test("l2 rejects dimension mismatch") {
    val a = blk(1, 0, 0, Array(1.0))
    val b = blk(1, 0, 1, Array(1.0, 2.0))
    intercept[IllegalArgumentException](a.l2(b))
  }

  test("sameContent holds for equal content, fails on a single-ulp change") {
    val a = blk(1, 0, 0, Array(1.0, 2.0, 3.0))
    val b = blk(2, 5, 5, Array(1.0, 2.0, 3.0))
    val c = blk(1, 0, 0, Array(1.0, 2.0, Math.nextUp(3.0)))
    assert(a.sameContent(b))
    assert(!a.sameContent(c))
  }

  test("sameContent distinguishes lengths") {
    val a = blk(1, 0, 0, Array(1.0, 2.0))
    val b = blk(1, 0, 0, Array(1.0, 2.0, 0.0))
    assert(!a.sameContent(b))
  }

  test("fromMatrix splits exactly-divisible matrices") {
    val m = Array.tabulate(4, 6)((i, j) => (i * 6 + j).toDouble)
    val t = Tensor.fromMatrix(3, "m", m, 2, 3)
    assert(t.rowBlocks == 2 && t.colBlocks == 2)
    // block (1,1) covers rows 2-3, cols 3-5
    assert(t.block(1, 1).data.toSeq == Seq(15.0, 16.0, 17.0, 21.0, 22.0, 23.0))
  }

  test("fromMatrix zero-pads ragged edges") {
    val m = Array.tabulate(3, 5)((i, j) => 1.0 + i + j)
    val t = Tensor.fromMatrix(4, "m", m, 2, 3)
    assert(t.rowBlocks == 2 && t.colBlocks == 2)
    val edge = t.block(1, 1) // covers rows 2 (then pad), cols 3-4 (then pad)
    assert(edge.data.toSeq == Seq(m(2)(3), m(2)(4), 0.0, 0.0, 0.0, 0.0))
  }
}
