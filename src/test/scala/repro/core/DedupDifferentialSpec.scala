package repro.core

import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.core.PagePacking.{Problem, twoStageReusing}
import repro.model.{Model, ModelGen}
import repro.model.ModelGen.EmbeddingShape

/** `DedupIndex` (F kept per tensor, `BandKey` index keys, a primitive exam
  * sort) against `ReferenceDedupIndex` (F keyed by logical block, string
  * index keys, a boxed exam sort): the same random sequence of adds, removals
  * and re-adds must leave both with the same stats, F, owners, groups,
  * packing problem and online packing after every step. A band key that
  * collided where the string key does not, or the reverse, shows as a
  * different merge.
  */
class DedupDifferentialSpec extends AnyFunSuite {
  import DedupDifferentialSpec._

  /** Deterministic property harness: sample `g` at seeds 1..n. */
  private def forAll[A](g: Gen[A], n: Int)(body: A => Unit): Unit =
    (1 to n).foreach(i => body(g.pureApply(Gen.Parameters.default, Seed(i.toLong))))

  private val l = 4

  private val shape = EmbeddingShape(rowBlocks = 8, colBlocks = 2, rowsPerBlock = 4, colsPerBlock = 4,
    blockVirtualBytes = 1L << 20)
  /** Every block drifts from the base, so only approximate dedup merges. */
  private lazy val word2vec: Vector[Model] = ModelGen.word2vecFamily(6, shape)._2
  /** Models 0 and 2 freeze the base, so exact dedup merges them. */
  private lazy val textClass: Vector[Model] = ModelGen.textClassFamily(shape)._2
  /** Each model: a W1 shared exactly and a private W2 (tensor ids 2i, 2i + 1). */
  private lazy val ffnn: Vector[Model] = ModelGen.ffnnFamily(6, w1Blocks = 12, w2Blocks = 3, blockDim = 16)

  /** Blocks that differ in one coordinate, drawn from [0, 4): a block is
    * often within L2 1.0 of two group representatives, so which group a
    * pairwise probe finds depends on the order it scans them in.
    */
  private lazy val line: Vector[Model] = Vector.tabulate(6) { m =>
    val rnd = new scala.util.Random(m)
    val t = Tensor.tabulate(m, s"line$m", 12, 1, 16, 1L << 20) { (_, _) =>
      val d = new Array[Double](16); d(0) = rnd.nextInt(8) * 0.5; d
    }
    Model(m, s"line-$m", Vector(t), Array.empty, 0.0)
  }

  private val stepGen: Gen[Step] = {
    val pick = Gen.choose(0, 1000)
    val oracle = Gen.zip(Gen.oneOf(false, true), Gen.oneOf(0.0, 0.002, 0.02))
    Gen.frequency(
      3 -> Gen.zip(pick, oracle).map { case (i, (g, p)) => Add(i, g, p) },
      2 -> pick.map(RemoveModel(_)),
      3 -> Gen.zip(pick, pick).map { case (i, b) => RemoveBlock(i, b) },
      2 -> Gen.zip(pick, oracle).map { case (i, (g, p)) => ReAdd(i, g, p) })
  }

  /** Accuracy falls by `penalty` for every block whose lookup is not its own
    * original array, so a large enough penalty trips the gate.
    */
  private def oracle(m: Model, penalty: Double): ModelAccuracy = new ModelAccuracy {
    override def accuracy(lookup: BlockRef => Array[Double]): Double =
      1.0 - penalty * m.tensors.iterator.flatMap(_.blocks).count(b => lookup(b.ref) ne b.data)
  }

  /** Runs `n` sequences of 30 steps.
    * @return how many blocks merged and how many adds the gate stopped, over all sequences
    */
  private def run(models: Vector[Model], newIndex: () => DedupIndex, n: Int): (Int, Int) = {
    val allRefs = models.flatMap(_.tensors).flatMap(_.blocks).map(_.ref)
    var merges, trips = 0
    forAll(Gen.listOfN(30, stepGen), n) { steps =>
      val idx = newIndex()
      val ref = new ReferenceDedupIndex(idx.config)
      var added = Set.empty[Int]
      var pages = Vector.empty[Set[Int]]
      def liveAndIdle = {
        val liveTensors = ref.mapping.keySet.map(_.tensorId)
        models.partition(_.tensors.exists(t => liveTensors(t.id)))
      }
      for ((step, s) <- steps.zipWithIndex) {
        val (live, idle) = liveAndIdle
        def add(m: Model, gated: Boolean, penalty: Double): Unit = {
          val ev = if (gated) Some(oracle(m, penalty)) else None
          val got = idx.addModel(m.tensors, ev).copy(probeNanos = 0L)
          assert(got == ref.addModel(m.tensors, ev).copy(probeNanos = 0L), s"step $s: $step")
          merges += got.merged
          if (got.stoppedEarly) trips += 1
          added += m.id
        }
        step match {
          case Add(i, gated, penalty) =>
            val fresh = idle.filterNot(m => added(m.id))
            if (fresh.nonEmpty) add(fresh(i % fresh.size), gated, penalty)
          case ReAdd(i, gated, penalty) =>
            val back = idle.filter(m => added(m.id))
            if (back.nonEmpty) add(back(i % back.size), gated, penalty)
          case RemoveModel(i) if live.nonEmpty =>
            for (t <- live(i % live.size).tensors)
              assert(idx.removeTensor(t.id) == ref.removeTensor(t.id), s"step $s: $step, tensor ${t.id}")
          case RemoveBlock(i, b) if live.nonEmpty =>
            val blocks = live(i % live.size).tensors.flatMap(_.blocks)
            val r = blocks(b % blocks.size).ref
            assert(idx.removeBlock(r) == ref.removeBlock(r), s"step $s: $step, $r")
          case _ => ()
        }
        // A live model cannot be added again, and the rejection changes nothing.
        for (m <- liveAndIdle._1.headOption) intercept[IllegalArgumentException](idx.addModel(m.tensors, None))

        val ctx = s"step $s: $step"
        assert(idx.mapping == ref.mapping, ctx)
        assert(idx.numDistinct == ref.numDistinct, ctx)
        assert(idx.distinct.map(_.ref) == ref.distinct.map(_.ref), ctx)
        assert(idx.numGroups == ref.numGroups, ctx)
        assert(allRefs.map(idx.groupSizeOf) == allRefs.map(ref.groupSizeOf), ctx)
        val problem = Problem.fromDedup(idx, l)
        assert(problem.owners == ref.owners, ctx)
        assert(problem == ref.problem(l), ctx)
        val packing = twoStageReusing(problem, pages)
        assert(packing == twoStageReusing(ref.problem(l), pages), ctx)
        pages = packing.distinctPages
      }
    }
    (merges, trips)
  }

  test("property: LSH with the accuracy gate, word2vec family") {
    val (merges, trips) = run(word2vec, () => Detectors.proposed(16, w = 0.3), n = 25)
    assert(merges > 0 && trips > 0, s"$merges merges, $trips gate stops")
  }

  test("property: LSH with the accuracy gate, ffnn family") {
    val (merges, trips) = run(ffnn, () => Detectors.proposed(16, w = 0.3), n = 25)
    assert(merges > 0 && trips > 0, s"$merges merges, $trips gate stops")
  }

  test("property: exact dedup, word2vec family (nothing merges)") {
    assert(run(word2vec, () => Detectors.mistiqueExact(), n = 25)._1 == 0)
  }

  test("property: exact dedup, text classification family") {
    assert(run(textClass, () => Detectors.mistiqueExact(), n = 25)._1 > 0)
  }

  test("property: exact dedup, ffnn family") {
    assert(run(ffnn, () => Detectors.mistiqueExact(), n = 25)._1 > 0)
  }

  test("property: naive pairwise scans groups in creation order") {
    assert(run(line, () => Detectors.naivePairwise(threshold = 1.0), n = 15)._1 > 0)
  }
}

object DedupDifferentialSpec {
  /** One step, its choices resolved against the models live at that point. */
  private sealed trait Step
  /** Add a model never added before; `gated` passes an oracle. */
  private final case class Add(pick: Int, gated: Boolean, penalty: Double) extends Step
  /** Remove every tensor of a live model. */
  private final case class RemoveModel(pick: Int) extends Step
  /** Remove one block of a live model (possibly one already removed). */
  private final case class RemoveBlock(pick: Int, block: Int) extends Step
  /** Add again a model none of whose tensors is live. */
  private final case class ReAdd(pick: Int, gated: Boolean, penalty: Double) extends Step
}
