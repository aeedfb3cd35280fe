package repro.core

import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.model.ModelGen
import scala.util.Random

class DedupIndexSpec extends AnyFunSuite {

  private val dim = 16

  private def vec(seed: Int, scale: Double = 1.0): Array[Double] = {
    val rnd = new Random(seed); Array.fill(dim)(rnd.nextGaussian() * scale)
  }

  private def drift(v: Array[Double], eps: Double, seed: Int): Array[Double] = {
    val rnd = new Random(seed); v.map(_ + rnd.nextGaussian() * eps)
  }

  private def mkTensor(id: Int, blocks: Seq[Array[Double]]): Tensor =
    Tensor(id, s"t$id", blocks.size, 1,
      blocks.zipWithIndex.map { case (d, i) =>
        TensorBlock(BlockRef(id, BlockId(i, 0)), d, 8L)
      }.toVector)

  /** Accuracy oracle: full accuracy unless a listed critical block's data
    * deviates from its original, each deviation costing `penalty`.
    */
  private def oracle(t: Tensor, critical: Set[Int], penalty: Double): ModelAccuracy =
    new ModelAccuracy {
      override def accuracy(lookup: BlockRef => Array[Double]): Double = {
        val bad = critical.count { i =>
          val ref = t.blocks(i).ref
          !java.util.Arrays.equals(lookup(ref), t.blocks(i).data)
        }
        1.0 - penalty * bad
      }
    }

  test("identical blocks across tensors merge to one distinct block (LSH)") {
    val shared = vec(1)
    val t1 = mkTensor(1, Seq(shared, vec(2)))
    val t2 = mkTensor(2, Seq(shared.clone(), vec(3)))
    val idx = Detectors.proposed(dim)
    idx.addModel(Seq(t1), None)
    val s2 = idx.addModel(Seq(t2), None)
    assert(s2.merged >= 1)
    assert(idx.mapping(BlockRef(1, BlockId(0, 0))) == idx.mapping(BlockRef(2, BlockId(0, 0))))
    assert(idx.numDistinct <= 3)
  }

  test("mapping covers every logical block") {
    val t1 = mkTensor(1, Seq(vec(1), vec(2), vec(3)))
    val t2 = mkTensor(2, Seq(vec(1), vec(4)))
    val idx = Detectors.proposed(dim)
    idx.addModel(Seq(t1), None); idx.addModel(Seq(t2), None)
    val refs = (t1.blocks ++ t2.blocks).map(_.ref).toSet
    assert(idx.mapping.keySet == refs)
    assert(idx.mapping.values.forall(i => i >= 0 && i < idx.numDistinct))
  }

  test("exact dedup merges bit-identical blocks only") {
    val a = vec(1)
    val t1 = mkTensor(1, Seq(a, vec(2)))
    val t2 = mkTensor(2, Seq(a.clone(), drift(a, 1e-9, 7)))
    val idx = Detectors.mistiqueExact()
    idx.addModel(Seq(t1), None)
    val s = idx.addModel(Seq(t2), None)
    assert(s.merged == 1) // only the exact copy
    assert(idx.mapping(BlockRef(2, BlockId(0, 0))) == idx.mapping(BlockRef(1, BlockId(0, 0))))
    assert(idx.mapping(BlockRef(2, BlockId(1, 0))) != idx.mapping(BlockRef(1, BlockId(0, 0))))
  }

  test("LSH merges small drifts that exact dedup keeps distinct") {
    val a = vec(5, scale = 0.05)
    val t1 = mkTensor(1, Seq(a))
    val t2 = mkTensor(2, Seq(drift(a, 0.004, 3)))
    val lsh = Detectors.proposed(dim)
    lsh.addModel(Seq(t1), None)
    assert(lsh.addModel(Seq(t2), None).merged == 1)
    val exact = Detectors.mistiqueExact()
    exact.addModel(Seq(t1), None)
    assert(exact.addModel(Seq(t2), None).merged == 0)
  }

  test("intra-tensor duplicates merge too") {
    val a = vec(9)
    val t = mkTensor(1, Seq(a, a.clone(), vec(10)))
    val idx = Detectors.proposed(dim)
    val s = idx.addModel(Seq(t), None)
    assert(s.merged == 1)
    assert(idx.mapping(BlockRef(1, BlockId(0, 0))) == idx.mapping(BlockRef(1, BlockId(1, 0))))
  }

  test("accuracy gate stops merging for a model once the drop exceeds the threshold") {
    // Tensor of many mergeable blocks; every merge after the critical ones
    // costs accuracy. Gate should halt replacements.
    val base = vec(100, scale = 0.05)
    val blocks = (0 until 20).map(i => drift(base, 0.004, i))
    val t1 = mkTensor(1, blocks.map(_.clone()))
    val t2 = mkTensor(2, blocks.map(b => drift(b, 0.001, 999)))
    val idx = new DedupIndex(DedupConfig(ExamOrder.Natural,
      SignatureMatcher(new L2Lsh(dim, 4, 0.5, 17)), Some(Gate(checkEvery = 5, maxDrop = 0.15))))
    idx.addModel(Seq(t1), None) // index first model without gating concerns
    // Every merged block of t2 costs 0.05 accuracy: gate (0.15) trips after
    // the first check batch of 5 (drop 0.25 > 0.15).
    val ev = oracle(t2, (0 until 20).toSet, penalty = 0.05)
    val s = idx.addModel(Seq(t2), Some(ev))
    assert(s.stoppedEarly)
    assert(s.merged == 5, s"merged ${s.merged}")
    // Unmerged blocks keep private distinct copies but join groups.
    assert(idx.groupSizeOf(BlockRef(2, BlockId(10, 0))).exists(_ >= 2))
    assert(s.accuracyBefore == 1.0)
    assert(math.abs(s.accuracyAfter - 0.75) < 1e-9)
  }

  test("magnitude ordering merges harmless low-magnitude blocks before critical ones") {
    // Low-magnitude blocks are duplicated (mergeable, harmless); the one
    // high-magnitude block is critical: merging it costs 0.5 accuracy.
    val rnd = new Random(0)
    def mk(seedBase: Int): Seq[Array[Double]] = {
      val small = (0 until 10).map(i => vec(seedBase + i, scale = 0.02))
      val big = vec(777, scale = 5.0) // identical across tensors
      small :+ big
    }
    val t1 = mkTensor(1, mk(10))
    val t2base = mk(10) // same smalls, same big
    val t2 = mkTensor(2, t2base.map(b => drift(b, 0.002, rnd.nextInt())))
    val gate = Gate(checkEvery = 2, maxDrop = 0.1)

    def run(order: ExamOrder): (Int, Double) = {
      val idx = new DedupIndex(DedupConfig(order,
        SignatureMatcher(new L2Lsh(dim, 4, 0.5, 17)), Some(gate)))
      idx.addModel(Seq(t1), None)
      val ev = oracle(t2, critical = Set(10), penalty = 0.5)
      val s = idx.addModel(Seq(t2), Some(ev))
      (s.merged, s.accuracyDrop)
    }
    val (mergedMag, dropMag) = run(ExamOrder.MagnitudeAscending)
    val (mergedNat, dropNat) = run(ExamOrder.Natural)
    // Magnitude order: all 10 smalls merge first; critical big merges in the
    // final batch but the gate then stops (drop recorded, no rollback) —
    // matching the paper's no-rollback semantics. Natural order reaches the
    // critical block at the end too here, so instead check the ordering
    // property directly: magnitude order must merge every small block.
    assert(mergedMag >= 10, s"magnitude order merged only $mergedMag")
    assert(dropMag >= 0.0 && mergedNat >= 0 && dropNat >= 0.0)
  }

  test("owners maps distinct blocks to the tensors sharing them") {
    val shared = vec(1)
    val t1 = mkTensor(1, Seq(shared, vec(2)))
    val t2 = mkTensor(2, Seq(shared.clone(), vec(3)))
    val idx = Detectors.proposed(dim)
    idx.addModel(Seq(t1), None); idx.addModel(Seq(t2), None)
    val owners = PagePacking.Problem.fromDedup(idx, l = 4).owners
    val sharedIdx = idx.mapping(BlockRef(1, BlockId(0, 0)))
    assert(owners(sharedIdx) == Set(1, 2))
    val privIdx = idx.mapping(BlockRef(1, BlockId(1, 0)))
    assert(owners(privIdx) == Set(1))
  }

  test("multi-tensor models: blocks of all tensors are indexed") {
    val tA = mkTensor(1, Seq(vec(1), vec(2)))
    val tB = mkTensor(2, Seq(vec(3)))
    val idx = Detectors.proposed(dim)
    val s = idx.addModel(Seq(tA, tB), None)
    assert(s.total == 3)
    assert(idx.mapping.contains(BlockRef(2, BlockId(0, 0))))
  }

  test("removeBlock drops membership; sole groups disappear") {
    val t1 = mkTensor(1, Seq(vec(1)))
    val idx = Detectors.proposed(dim)
    idx.addModel(Seq(t1), None)
    assert(idx.numGroups == 1)
    assert(idx.removeBlock(BlockRef(1, BlockId(0, 0))))
    assert(idx.numGroups == 0)
    assert(!idx.removeBlock(BlockRef(1, BlockId(0, 0)))) // already gone
  }

  test("removeBlock keeps the group when other members remain") {
    val shared = vec(4)
    val t1 = mkTensor(1, Seq(shared)); val t2 = mkTensor(2, Seq(shared.clone()))
    val idx = Detectors.proposed(dim)
    idx.addModel(Seq(t1), None); idx.addModel(Seq(t2), None)
    assert(idx.removeBlock(BlockRef(2, BlockId(0, 0))))
    assert(idx.numGroups == 1)
    assert(idx.groupSizeOf(BlockRef(1, BlockId(0, 0))).contains(1))
  }

  test("removeTensor removes every block of that tensor") {
    val t1 = mkTensor(1, Seq(vec(1), vec(2), vec(3)))
    val t2 = mkTensor(2, Seq(vec(1)))
    val idx = Detectors.proposed(dim)
    idx.addModel(Seq(t1), None); idx.addModel(Seq(t2), None)
    assert(idx.removeTensor(1) == 3)
    assert(idx.mapping.keySet.forall(_.tensorId == 2))
  }

  test("re-indexing after removal reuses surviving groups") {
    val shared = vec(4)
    val t1 = mkTensor(1, Seq(shared)); val t2 = mkTensor(2, Seq(shared.clone()))
    val idx = Detectors.proposed(dim)
    idx.addModel(Seq(t1), None)
    idx.addModel(Seq(t2), None)
    idx.removeTensor(2)
    val t3 = mkTensor(3, Seq(shared.clone()))
    val s = idx.addModel(Seq(t3), None)
    assert(s.merged == 1) // matched t1's surviving group
  }

  test("probe timing statistics accumulate") {
    val t1 = mkTensor(1, Seq(vec(1), vec(2)))
    val idx = Detectors.proposed(dim)
    val s = idx.addModel(Seq(t1), None)
    assert(s.probes == 2)
    assert(s.avgProbeSeconds >= 0.0)
    assert(idx.avgProbeSeconds >= 0.0)
  }

  test("pairwise matcher groups blocks within the L2 threshold") {
    val a = vec(8, scale = 0.05)
    val t1 = mkTensor(1, Seq(a))
    val t2 = mkTensor(2, Seq(drift(a, 0.004, 5), vec(60)))
    val idx = Detectors.enhancedPairwise(threshold = 0.3)
    idx.addModel(Seq(t1), None)
    val s = idx.addModel(Seq(t2), None)
    assert(s.merged == 1)
    assert(idx.numDistinct == 2)
  }

  test("MinHash banding merges drifted blocks (Mistique approximate)") {
    val a = vec(8, scale = 0.05)
    val t1 = mkTensor(1, Seq(a))
    val t2 = mkTensor(2, Seq(drift(a, 0.002, 5)))
    val idx = Detectors.mistiqueApprox(dim)
    idx.addModel(Seq(t1), None)
    val s = idx.addModel(Seq(t2), None)
    assert(s.merged == 1)
  }

  test("stats without an evaluator report accuracy 1.0 and no early stop") {
    val idx = Detectors.proposed(dim)
    val s = idx.addModel(Seq(mkTensor(1, Seq(vec(1)))), None)
    assert(s.accuracyBefore == 1.0 && s.accuracyAfter == 1.0 && !s.stoppedEarly)
  }

  // -- rejected input (the index must not change) -----------------------------

  private def state(idx: DedupIndex) =
    (idx.mapping, idx.logicalItems, idx.distinct.map(_.ref), idx.numGroups, idx.avgProbeSeconds)

  test("addModel rejects mixed block lengths before changing the index") {
    val idx = Detectors.proposed(dim)
    val small = vec(1, scale = 0.05)
    idx.addModel(Seq(mkTensor(1, Seq(small, vec(2)))), None)
    val before = state(idx)
    // In magnitude order the mergeable copy of `small` comes before the short block.
    val bad = mkTensor(2, Seq(Array(5.0, 5.0), small.clone()))
    val e = intercept[IllegalArgumentException](idx.addModel(Seq(bad), None))
    assert(e.getMessage.contains("tensor t2") && e.getMessage.contains("length 2, index dimension is 16"))
    assert(state(idx) == before)
    // A fresh index takes its dimension from the model's first block.
    val fresh = Detectors.mistiqueExact()
    intercept[IllegalArgumentException](fresh.addModel(Seq(mkTensor(3, Seq(vec(4), Array(1.0)))), None))
    assert(fresh.numDistinct == 0 && fresh.mapping.isEmpty)
  }

  test("addModel rejects a NaN or infinite weight, naming tensor, block and position, before changing the index") {
    // A NaN block's L2-LSH signature is all zeros, so without the check it
    // joins the group of any block with a zero band.
    val idx = Detectors.proposed(4, w = 0.3)
    idx.addModel(Seq(mkTensor(1, Seq(Array(0.01, -0.02, 0.015, 0.0)))), None)
    val before = state(idx)
    for ((x, pos) <- Seq(Double.NaN -> 0, Double.PositiveInfinity -> 2, Double.NegativeInfinity -> 3)) {
      val data = Array(0.0, 0.0, 0.0, 0.0)
      data(pos) = x
      val bad = mkTensor(2, Seq(Array(0.01, -0.02, 0.015, 0.0), data))
      val e = intercept[IllegalArgumentException](idx.addModel(Seq(bad), None))
      assert(e.getMessage.contains(s"tensor t2 (id 2): block ${BlockId(1, 0)} has the non-finite weight $x " +
        s"at position $pos"), e.getMessage)
      assert(state(idx) == before)
    }
  }

  test("addModel rejects a model with no blocks before changing the index") {
    val idx = Detectors.proposed(dim)
    idx.addModel(Seq(mkTensor(1, Seq(vec(1)))), None)
    val before = state(idx)
    intercept[IllegalArgumentException](idx.addModel(Nil, None))
    intercept[IllegalArgumentException](idx.addModel(Seq(mkTensor(2, Nil)), None))
    assert(state(idx) == before)
  }

  test("addModel rejects a tensor that is already live, naming it, before changing the index") {
    val shared = vec(1)
    val idx = Detectors.proposed(dim)
    idx.addModel(Seq(mkTensor(1, Seq(shared, vec(2)))), None)
    idx.addModel(Seq(mkTensor(2, Seq(shared.clone()))), None)
    val before = state(idx)
    val groupSize = idx.groupSizeOf(BlockRef(1, BlockId(0, 0)))
    // A new tensor first, so a check made per tensor while indexing would already have changed the index.
    val again = Seq(mkTensor(3, Seq(vec(3))), mkTensor(2, Seq(vec(4), shared.clone())))
    val e = intercept[IllegalArgumentException](idx.addModel(again, None))
    assert(e.getMessage.contains("tensor t2 (id 2)") && e.getMessage.contains("already"), e.getMessage)
    assert(state(idx) == before)
    assert(idx.groupSizeOf(BlockRef(1, BlockId(0, 0))) == groupSize)
    // Once removed, the tensor may come back.
    idx.removeTensor(2)
    assert(idx.addModel(Seq(mkTensor(2, Seq(shared.clone()))), None).merged == 1)
  }

  test("Gate rejects a bad period or drop, naming the value") {
    def message(f: => Any): String = intercept[IllegalArgumentException](f).getMessage
    assert(message(Gate(checkEvery = 0, maxDrop = 0.1)).contains("checkEvery = 0"))
    assert(message(Gate(checkEvery = 5, maxDrop = -0.1)).contains("maxDrop = -0.1"))
    assert(message(Gate(checkEvery = 5, maxDrop = Double.NaN)).contains("maxDrop = NaN"))
  }

  test("addModel rejects a tensor listed twice, a foreign block and a repeated position") {
    val idx = Detectors.mistiqueExact()
    idx.addModel(Seq(mkTensor(1, Seq(vec(1)))), None)
    val before = state(idx)
    val twice = intercept[IllegalArgumentException](idx.addModel(Seq(mkTensor(2, Seq(vec(2))), mkTensor(2, Seq(vec(3)))), None))
    assert(twice.getMessage.contains("id 2") && twice.getMessage.contains("twice"), twice.getMessage)
    val foreign = Tensor(3, "t3", 1, 1, Vector(TensorBlock(BlockRef(4, BlockId(0, 0)), vec(4), 8L)))
    assert(intercept[IllegalArgumentException](idx.addModel(Seq(foreign), None)).getMessage.contains("another tensor"))
    val repeated = Tensor(5, "t5", 2, 1, Vector.fill(2)(TensorBlock(BlockRef(5, BlockId(0, 0)), vec(5), 8L)))
    assert(intercept[IllegalArgumentException](idx.addModel(Seq(repeated), None)).getMessage.contains("repeats"))
    assert(state(idx) == before)
  }

  // -- exam order (Sec. 4.3 Steps 1–2) ----------------------------------------

  private def assertMagnitudeOrder(blocks: Vector[TensorBlock]): Unit = {
    val idx = Detectors.proposed(blocks.head.data.length)
    assert(idx.examOrder(blocks).map(_.ref) ==
      blocks.sortBy(b => Magnitude.thirdQuartile(b.data)).map(_.ref))
  }

  test("exam order equals sorting by 3rd-quartile magnitude on word2vec models") {
    val (_, models) = ModelGen.word2vecFamily(2)
    models.foreach(m => assertMagnitudeOrder(m.tensors.flatMap(_.blocks)))
  }

  test("exam order equals sorting by 3rd-quartile magnitude on ffnn models") {
    ModelGen.ffnnFamily(2).foreach(m => assertMagnitudeOrder(m.tensors.flatMap(_.blocks)))
  }

  test("exam order is stable: blocks with tied magnitudes keep write order") {
    val base = vec(3)
    // Sign flips and a reversal keep every block's multiset of |w|.
    val tied = Seq(base, base.map(-_), base.reverse, base.map(math.abs), vec(4, 0.1), base.reverse.map(-_))
    val t = mkTensor(9, tied)
    assertMagnitudeOrder(t.blocks)
    val order = Detectors.proposed(dim).examOrder(t.blocks).map(_.ref.blockId.row)
    assert(order == Vector(4, 0, 1, 2, 3, 5))
  }

  test("property: stableOrder equals a stable sortBy with ties, signed zeros, infinities and NaN") {
    val value = Gen.frequency(3 -> Gen.chooseNum(-1e6, 1e6), 3 -> Gen.oneOf(1.0, -1.0, 2.5, 1e-300),
      1 -> Gen.oneOf(0.0, -0.0), 1 -> Gen.oneOf(Double.PositiveInfinity, Double.NegativeInfinity),
      1 -> Gen.oneOf(Double.NaN, java.lang.Double.longBitsToDouble(0x7ff0000000000001L)))
    val keysGen = Gen.oneOf(Gen.choose(0, 8), Gen.choose(9, 200)).flatMap(Gen.listOfN(_, value)).map(_.toArray)
    (1 to 1000).foreach { i =>
      val keys = keysGen.pureApply(Gen.Parameters.default, Seed(i.toLong))
      assert(DedupIndex.stableOrder(keys).toSeq == keys.indices.sortBy(keys), s"seed $i: ${keys.mkString(",")}")
    }
  }

  test("natural exam order is write order") {
    val t = mkTensor(9, Seq(vec(5, 2.0), vec(6, 0.1), vec(7)))
    assert(Detectors.mistiqueExact().examOrder(t.blocks) == t.blocks)
  }
}
