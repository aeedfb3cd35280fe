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
    intercept[IllegalArgumentException](t.block(0, 3))
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

  test("constructor rejects a foreign ref and a repeated position, naming the index and the ref") {
    def message(f: => Any): String = intercept[IllegalArgumentException](f).getMessage
    val foreign = message(Tensor(3, "t3", 1, 1, Vector(blk(4, 0, 0, Array(1.0)))))
    assert(foreign.contains(s"tensor t3 (id 3): block 0 carries ${BlockRef(4, BlockId(0, 0))}, " +
      s"row-major order needs ${BlockRef(3, BlockId(0, 0))}"), foreign)
    val repeated = message(Tensor(5, "t5", 2, 1, Vector.fill(2)(blk(5, 0, 0, Array(1.0)))))
    assert(repeated.contains(s"block 1 carries ${BlockRef(5, BlockId(0, 0))}"), repeated)
    // Copying a tensor runs the same check.
    val t = Tensor.tabulate(6, "t6", 1, 2, 1, 8L)((_, c) => Array(c.toDouble))
    assert(message(t.copy(blocks = t.blocks.reverse)).contains(s"block 0 carries ${BlockRef(6, BlockId(0, 1))}"))
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
}
