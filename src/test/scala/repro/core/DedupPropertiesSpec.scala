package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** Randomized invariants of the dedup index (Sec. 4.1 conditions 1-3 and
  * engine bookkeeping), across all detector configurations.
  */
class DedupPropertiesSpec extends AnyFunSuite {

  private val dim = 16

  private def randomFamily(rnd: Random, nModels: Int, nBlocks: Int): Vector[Tensor] = {
    val base = Vector.fill(nBlocks)(Array.fill(dim)(rnd.nextGaussian() * 0.05))
    (1 to nModels).toVector.map { m =>
      Tensor(m, s"t$m", nBlocks, 1, Vector.tabulate(nBlocks) { i =>
        val drift = if (rnd.nextBoolean()) 0.0 else 0.004
        val data = base(i).map(_ + rnd.nextGaussian() * drift)
        TensorBlock(BlockRef(m, BlockId(i, 0)), data, 8L)
      })
    }
  }

  private def detectors(): Seq[(String, () => DedupIndex)] = Seq(
    "proposed" -> (() => Detectors.proposed(dim)),
    "exact" -> (() => Detectors.mistiqueExact()),
    "minhash" -> (() => Detectors.mistiqueApprox(dim)),
    "pairwise" -> (() => Detectors.enhancedPairwise()))

  test("property: mapping covers every logical block, for every detector") {
    val rnd = new Random(11)
    for (trial <- 1 to 5; (name, mk) <- detectors()) {
      val tensors = randomFamily(rnd, nModels = 2 + rnd.nextInt(3), nBlocks = 4 + rnd.nextInt(12))
      val idx = mk()
      tensors.foreach(t => idx.addModel(Seq(t), None))
      val refs = tensors.flatMap(_.blocks.map(_.ref)).toSet
      assert(idx.mapping.keySet == refs, s"$name trial $trial: mapping incomplete")
      assert(idx.mapping.values.forall(i => i >= 0 && i < idx.numDistinct), s"$name trial $trial")
    }
  }

  test("property: owners of every distinct block are exactly the mapping tensors") {
    val rnd = new Random(12)
    for (trial <- 1 to 5) {
      val tensors = randomFamily(rnd, 3, 10)
      val idx = Detectors.proposed(dim)
      tensors.foreach(t => idx.addModel(Seq(t), None))
      val expected = idx.mapping.toSeq.groupBy(_._2)
        .map { case (i, refs) => i -> refs.map(_._1.tensorId).toSet }
      assert(PagePacking.Problem.fromDedup(idx, l = 4).owners == expected, s"trial $trial")
    }
  }

  test("property: merged + new distinct accounting is consistent per model") {
    val rnd = new Random(13)
    for (_ <- 1 to 5) {
      val tensors = randomFamily(rnd, 3, 8)
      val idx = Detectors.proposed(dim)
      var distinctSoFar = 0
      for (t <- tensors) {
        val s = idx.addModel(Seq(t), None)
        val newDistinct = idx.numDistinct - distinctSoFar
        assert(s.merged + newDistinct == s.total,
          s"merged ${s.merged} + new $newDistinct != total ${s.total}")
        distinctSoFar = idx.numDistinct
      }
    }
  }

  test("property: removal then re-add restores a complete mapping") {
    val rnd = new Random(14)
    val tensors = randomFamily(rnd, 3, 10)
    val idx = Detectors.proposed(dim)
    tensors.foreach(t => idx.addModel(Seq(t), None))
    idx.removeTensor(2)
    assert(idx.mapping.keySet.forall(_.tensorId != 2))
    idx.addModel(Seq(tensors(1)), None)
    val refs = tensors.flatMap(_.blocks.map(_.ref)).toSet
    assert(idx.mapping.keySet == refs)
  }

  test("property: exact detector's distinct blocks are pairwise distinct in content") {
    val rnd = new Random(15)
    val tensors = randomFamily(rnd, 3, 8)
    val idx = Detectors.mistiqueExact()
    tensors.foreach(t => idx.addModel(Seq(t), None))
    val d = idx.distinct
    for (i <- d.indices; j <- (i + 1) until d.size)
      assert(!d(i).sameContent(d(j)), s"distinct blocks $i and $j are identical")
  }

  test("property: gated run never ends more than one batch beyond the threshold") {
    // Oracle: each merge costs exactly 1% accuracy; gate of 3% every 2
    // blocks means the run stops with at most 3%+2 merges worth of damage.
    val rnd = new Random(16)
    val base = Array.fill(dim)(rnd.nextGaussian() * 0.05)
    val blocks = Vector.tabulate(20)(i => base.map(_ + rnd.nextGaussian() * 0.002))
    val t1 = Tensor(1, "t1", 20, 1, Vector.tabulate(20)(i =>
      TensorBlock(BlockRef(1, BlockId(i, 0)), blocks(i).clone(), 8L)))
    val t2 = Tensor(2, "t2", 20, 1, Vector.tabulate(20)(i =>
      TensorBlock(BlockRef(2, BlockId(i, 0)), blocks(i).map(_ + 1e-4), 8L)))
    val idx = new DedupIndex(DedupConfig(ExamOrder.MagnitudeAscending,
      SignatureMatcher(new L2Lsh(dim, 12, 0.25, 17), bands = 4), Some(Gate(2, 0.03))))
    idx.addModel(Seq(t1), None)
    val oracle = new ModelAccuracy {
      override def accuracy(lookup: BlockRef => Array[Double]): Double = {
        val bad = t2.blocks.count(b => !java.util.Arrays.equals(lookup(b.ref), b.data))
        1.0 - 0.01 * bad
      }
    }
    val s = idx.addModel(Seq(t2), Some(oracle))
    assert(s.stoppedEarly)
    assert(s.accuracyDrop <= 0.03 + 0.02 + 1e-9, s"drop ${s.accuracyDrop} exceeds gate + one batch")
  }
}
