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
  * paper-scale physical size; only `Tensor.virtualBytes` and
  * `Model.virtualBytes` sum it. Pages are sized by `PageStore.pageBytes` and
  * hold at most `l` blocks, whatever the blocks' sizes.
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
  * blocks carrying their grid position as metadata. `blocks` is the grid in
  * row-major order: block `i` carries `BlockRef(id, BlockId(i / colBlocks,
  * i % colBlocks))`, which the constructor checks (and so does `copy`). Every
  * consumer may therefore read block `i` as grid position `i`.
  */
final case class Tensor(id: Int, name: String, rowBlocks: Int, colBlocks: Int,
                        blocks: Vector[TensorBlock]) {
  require(rowBlocks >= 0 && colBlocks >= 0 && blocks.size.toLong == rowBlocks.toLong * colBlocks,
    s"tensor $name (id $id): ${blocks.size} blocks != grid $rowBlocks x $colBlocks")
  locally {
    val bad = Tensor.firstMisplaced(id, colBlocks, blocks)
    require(bad == blocks.size, s"tensor $name (id $id): block $bad carries ${blocks(bad).ref}, " +
      s"row-major order needs ${BlockRef(id, BlockId(bad / colBlocks, bad % colBlocks))}")
  }

  def numBlocks: Int = blocks.size

  def block(row: Int, col: Int): TensorBlock = {
    val p = Tensor.position(BlockId(row, col), rowBlocks, colBlocks)
    require(p >= 0, s"tensor $name (id $id): block ($row, $col) lies outside the grid $rowBlocks x $colBlocks")
    blocks(p)
  }

  /** Total paper-scale physical size of the tensor. */
  def virtualBytes: Long = blocks.iterator.map(_.virtualBytes).sum
}

object Tensor {

  /** Position in a row-major grid of `rows x cols` blocks of `id`, or -1 when
    * `id` lies outside the grid.
    */
  def position(id: BlockId, rows: Int, cols: Int): Int =
    if (id.row >= 0 && id.row < rows && id.col >= 0 && id.col < cols) id.linear(cols) else -1

  /** The first index whose block does not carry its row-major ref, else
    * `blocks.size`. Compares fields, so it allocates nothing per block.
    */
  private def firstMisplaced(id: Int, cols: Int, blocks: Vector[TensorBlock]): Int = {
    val it = blocks.iterator
    var i = 0
    while (it.hasNext) {
      val ref = it.next().ref
      if (ref.tensorId != id || ref.blockId.row != i / cols || ref.blockId.col != i % cols) return i
      i += 1
    }
    i
  }

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
}
