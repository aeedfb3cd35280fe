package repro.core

import repro.SparkSpec
import repro.model.ModelGen
import repro.model.ModelGen.EmbeddingShape

class DedupSparkSpec extends SparkSpec {

  private val shape = EmbeddingShape(rowBlocks = 8, colBlocks = 2,
    rowsPerBlock = 4, colsPerBlock = 4, blockVirtualBytes = 1L << 20)
  private val dim = shape.blockDim
  private val (k, w, bands, seed) = (12, 0.25, 4, 17L)

  private lazy val models = ModelGen.word2vecFamily(2, shape)._2
  private lazy val tensors = models.map(_.primary)

  test("executor-side metadata matches the driver-side hasher and magnitude") {
    val blocks = DedupSpark.toBlockInputs(spark, tensors)
    val meta = DedupSpark.blockMetadata(spark, blocks, dim, k, w, bands, seed).collect()
    val matcher = Detectors.proposed(dim, k, w, bands, seed).config.matcher.asInstanceOf[SignatureMatcher]
    val byRef = meta.map(m => (m.tensorId, m.blockRow, m.blockCol) -> m).toMap
    assert(meta.length == tensors.map(_.numBlocks).sum)
    for (t <- tensors; b <- t.blocks) {
      val m = byRef((b.ref.tensorId, b.ref.blockId.row, b.ref.blockId.col))
      assert(m.magnitude == Magnitude.thirdQuartile(b.data))
      assert(m.bandKeys == matcher.keys(b.data))
    }
  }

  // The band keys DedupSpark ships to executors are SignatureMatcher.keys.
  test("bandKeysOf: single band is the whole signature; bands partition it") {
    val fixed = new BlockHasher { def signature(v: Array[Double]) = Signature(Vector(1, 2, 3, 4, 5, 6)) }
    val block = Array.fill(dim)(1.0)
    assert(SignatureMatcher(fixed).keys(block) == Seq("0:1,2,3,4,5,6"))
    assert(SignatureMatcher(fixed, bands = 3).keys(block) == Seq("0:1,2", "1:3,4", "2:5,6"))
  }

  test("metadata is invariant under repartitioning (per-partition hashers are deterministic)") {
    val blocks = DedupSpark.toBlockInputs(spark, tensors)
    val one = DedupSpark.blockMetadata(spark, blocks.repartition(1), dim, k, w, bands, seed)
      .collect().sortBy(m => (m.tensorId, m.blockRow, m.blockCol)).toSeq
    val many = DedupSpark.blockMetadata(spark, blocks.repartition(7), dim, k, w, bands, seed)
      .collect().sortBy(m => (m.tensorId, m.blockRow, m.blockCol)).toSeq
    assert(one.map(m => (m.tensorId, m.blockRow, m.blockCol, m.magnitude, m.bandKeys)) ==
      many.map(m => (m.tensorId, m.blockRow, m.blockCol, m.magnitude, m.bandKeys)))
  }
}
