package repro.core

/** Position of a block inside its tensor's block grid (row-major). */
final case class BlockId(row: Int, col: Int) {
  /** Linear index inside a grid with `cols` block columns. */
  def linear(cols: Int): Int = row * cols + col
}

/** Globally unique reference to a *logical* tensor block: which tensor it
  * belongs to and where it sits in that tensor.
  */
final case class BlockRef(tensorId: Int, blockId: BlockId)

/** One tensor block.
  *
  * `data` holds the block's real weight values (scaled down from the paper's
  * 8 MB blocks — see DESIGN.md §2); all similarity, LSH, magnitude, and
  * accuracy computations operate on it. `virtualBytes` is the block's
  * paper-scale physical size, used by the page/packing/caching layers so
  * that storage experiments run at the paper's true working-set scale
  * without allocating it.
  */
final case class TensorBlock(ref: BlockRef, data: Array[Double], virtualBytes: Long) {

  /** Euclidean distance to another block (must have equal dimension). */
  def l2(other: TensorBlock): Double = {
    require(data.length == other.data.length, "dimension mismatch")
    var s = 0.0
    var i = 0
    while (i < data.length) { val d = data(i) - other.data(i); s += d * d; i += 1 }
    math.sqrt(s)
  }

  /** Bit-exact content equality (`ExactHasher` signatures can collide; this cannot). */
  def sameContent(other: TensorBlock): Boolean =
    data.length == other.data.length &&
      java.util.Arrays.equals(data, other.data)
}

/** A tensor: a grid of `rowBlocks x colBlocks` blocks of equal shape.
  *
  * Mirrors the paper's TRA representation where a tensor is a set of tensor
  * blocks carrying their grid position as metadata.
  */
final case class Tensor(id: Int, name: String, rowBlocks: Int, colBlocks: Int,
                        blocks: Vector[TensorBlock]) {
  require(blocks.size == rowBlocks * colBlocks,
    s"tensor $name: ${blocks.size} blocks != grid $rowBlocks x $colBlocks")

  def numBlocks: Int = blocks.size

  def block(row: Int, col: Int): TensorBlock = blocks(row * colBlocks + col)

  /** Total paper-scale physical size of the tensor. */
  def virtualBytes: Long = blocks.iterator.map(_.virtualBytes).sum
}

object Tensor {

  /** Build a tensor from a generator of per-block vectors.
    *
    * @param dim          length of each block's real data vector
    * @param virtualBytes paper-scale size of every block
    * @param gen          (blockRow, blockCol) => block values
    */
  def tabulate(id: Int, name: String, rowBlocks: Int, colBlocks: Int, dim: Int,
               virtualBytes: Long)(gen: (Int, Int) => Array[Double]): Tensor = {
    val blocks = Vector.tabulate(rowBlocks * colBlocks) { i =>
      val r = i / colBlocks; val c = i % colBlocks
      val d = gen(r, c)
      require(d.length == dim, s"generator returned ${d.length} values, expected $dim")
      TensorBlock(BlockRef(id, BlockId(r, c)), d, virtualBytes)
    }
    Tensor(id, name, rowBlocks, colBlocks, blocks)
  }

  /** Split a small dense matrix into blocks of shape (brows x bcols), padding
    * the ragged right/bottom edges with zeros. Used by unit tests and the
    * Spark TRA layer; paper-scale tensors are generated blockwise instead.
    */
  def fromMatrix(id: Int, name: String, m: Array[Array[Double]], brows: Int, bcols: Int,
                 virtualBytes: Long = 0L): Tensor = {
    val rows = m.length; val cols = if (rows == 0) 0 else m(0).length
    val rb = math.max(1, (rows + brows - 1) / brows)
    val cb = math.max(1, (cols + bcols - 1) / bcols)
    tabulate(id, name, rb, cb, brows * bcols, virtualBytes) { (r, c) =>
      val out = new Array[Double](brows * bcols)
      var i = 0
      while (i < brows) {
        var j = 0
        while (j < bcols) {
          val gr = r * brows + i; val gc = c * bcols + j
          if (gr < rows && gc < cols) out(i * bcols + j) = m(gr)(gc)
          j += 1
        }
        i += 1
      }
      out
    }
  }
}
