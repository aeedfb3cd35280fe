package repro.core

import org.apache.spark.sql.{Dataset, SparkSession}

/** Executor-side half of the deduplication pipeline (DESIGN.md §4): LSH
  * signatures and aggregated magnitudes are computed per partition over a
  * DataFrame of tensor blocks; the driver folds the collected per-block
  * metadata through the accuracy-gated grouping (Alg. 1), which is
  * inherently sequential in its validation checks.
  */
object DedupSpark {

  /** One tensor block as a relation row. */
  final case class BlockInput(tensorId: Int, blockRow: Int, blockCol: Int, data: Array[Double])

  /** Per-block metadata the driver needs: identity, magnitude, band keys. */
  final case class BlockMeta(tensorId: Int, blockRow: Int, blockCol: Int,
                             magnitude: Double, bandKeys: Seq[String])

  /** Compute index keys + 3rd-quartile magnitudes for every block, with one
    * matcher per partition built as `Detectors.proposed` builds its own
    * (hashers are deterministic in their seed, so partitioning never changes
    * results).
    */
  def blockMetadata(spark: SparkSession, blocks: Dataset[BlockInput],
                    dim: Int, k: Int, w: Double, bands: Int, seed: Long): Dataset[BlockMeta] = {
    import spark.implicits._
    blocks.mapPartitions { it =>
      val matcher = SignatureMatcher(new L2Lsh(dim, k, w, seed), bands)
      it.map { b =>
        BlockMeta(b.tensorId, b.blockRow, b.blockCol, Magnitude.thirdQuartile(b.data), matcher.keys(b.data))
      }
    }
  }

  /** Convenience: lift driver-side tensors into the block relation. */
  def toBlockInputs(spark: SparkSession, tensors: Seq[Tensor]): Dataset[BlockInput] = {
    import spark.implicits._
    spark.createDataset(tensors.flatMap(t =>
      t.blocks.map(b => BlockInput(b.ref.tensorId, b.ref.blockId.row, b.ref.blockId.col, b.data))))
  }
}
