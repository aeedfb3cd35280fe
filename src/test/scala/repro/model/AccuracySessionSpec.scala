package repro.model

import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{BlockId, BlockRef, Detectors, ModelAccuracy}
import repro.experiments.Scenarios
import repro.model.ModelGen._
import scala.collection.mutable
import scala.util.Random

/** The incremental accuracy oracle (`AccuracyEval.session`) against full
  * recomputation: same accuracy at every step, same dedup decisions.
  */
class AccuracySessionSpec extends AnyFunSuite {
  import AccuracySessionSpec._

  /** Deterministic property harness: sample `g` at seeds 1..n. */
  private def forAll[A](g: Gen[A], n: Int)(body: A => Unit): Unit =
    (1 to n).foreach(i => body(g.pureApply(Gen.Parameters.default, Seed(i.toLong))))

  private val shape = EmbeddingShape(rowBlocks = 16, colBlocks = 2,
    rowsPerBlock = 4, colsPerBlock = 4, blockVirtualBytes = 1L << 20)
  private lazy val (fam, models) = textClassFamily(shape)
  private lazy val eval = new AccuracyEval(fam, numExamples = 300, seed = 55)

  private val blockGen = Gen.choose(0, shape.numBlocks - 1)
  private val stepGen: Gen[Step] = Gen.oneOf(
    Gen.zip(blockGen, Gen.choose(0L, 1L << 40)).map { case (k, s) => Perturb(k, s) },
    Gen.zip(blockGen, blockGen).map { case (k, j) => Share(k, j) },
    blockGen.map(Revert(_)))
  /** Steps, each with a flag: when set, that step's lookup copies every array. */
  private val sequenceGen: Gen[(Int, List[(Step, Boolean)])] = Gen.zip(
    Gen.choose(0, 4), Gen.listOfN(25, Gen.zip(stepGen, Gen.frequency(4 -> false, 1 -> true))))

  test("property: session accuracy equals a full reference recompute after every replacement") {
    forAll(sequenceGen, n = 40) { case (modelIdx, steps) =>
      val m = models(modelIdx)
      val lbls = eval.labels(m, 0.1)
      def ref(k: Int) = BlockRef(m.primary.id, BlockId(k / shape.colBlocks, k % shape.colBlocks))
      val orig = blockData(Seq(m))
      val current = mutable.HashMap.empty[BlockRef, Array[Double]] ++= orig
      val session = eval.session(m, lbls)
      assert(session.accuracy(current(_)) == ReferenceForward.accuracy(eval, shape, m, lbls, current(_)))
      for (((step, fresh), n) <- steps.zipWithIndex) {
        step match {
          case Perturb(k, s) =>
            val rnd = new Random(s)
            current(ref(k)) = current(ref(k)).map(_ + rnd.nextGaussian())
          case Share(k, j) => current(ref(k)) = current(ref(j))
          case Revert(k) => current(ref(k)) = orig(ref(k))
        }
        val lookup: BlockRef => Array[Double] =
          if (fresh) r => current(r).clone() else current(_)
        val expected = ReferenceForward.accuracy(eval, shape, m, lbls, lookup)
        assert(session.accuracy(lookup) == expected, s"model $modelIdx step $n: $step fresh=$fresh")
        assert(eval.accuracy(m, lbls, lookup) == expected, s"full pass, model $modelIdx step $n")
      }
    }
  }

  test("a session call with nothing changed returns the previous accuracy") {
    val m = models(1)
    val lbls = eval.labels(m, 0.3)
    val d = blockData(Seq(m))
    val session = eval.session(m, lbls)
    val a = session.accuracy(d(_))
    assert(session.accuracy(d(_)) == a)
    assert(a == eval.accuracy(m, lbls, d(_)))
  }

  // -- dedup decisions: incremental vs full-recompute oracle -----------------

  /** Test-only oracle that recomputes every logit on every call. */
  private final class FullRecompute(ev: AccuracyEval, m: Model, lbls: Array[Boolean])
      extends ModelAccuracy {
    override def accuracy(lookup: BlockRef => Array[Double]): Double = ev.accuracy(m, lbls, lookup)
  }

  /** The dedup part of `Scenarios.build` with a given oracle per model. */
  private def dedup(models: Vector[Model], ev: AccuracyEval, noise: Int => Double,
                    oracle: (Model, Array[Boolean]) => ModelAccuracy) = {
    val idx = Detectors.proposed(models.head.primary.blocks.head.data.length, w = 0.3)
    val stats = models.map { m =>
      idx.addModel(m.tensors, Some(oracle(m, ev.labels(m, noise(m.id))))).copy(probeNanos = 0L)
    }
    (stats, idx.mapping, idx.distinct.map(b => (b.ref, b.data.toSeq)))
  }

  private def assertSameDecisions(fam: EmbeddingFamily, models: Vector[Model],
                                  noise: Int => Double): Unit = {
    val ev = new AccuracyEval(fam)
    val (fStats, fMapping, fDistinct) = dedup(models, ev, noise, new FullRecompute(ev, _, _))
    val (iStats, iMapping, iDistinct) = dedup(models, ev, noise, new Scenarios.EvalAdapter(ev, _, _))
    assert(iStats == fStats)
    assert(iMapping == fMapping)
    assert(iDistinct == fDistinct)
    assert(fStats.exists(_.merged > 0))
  }

  test("word2vec(4): incremental and full-recompute oracles make identical dedup decisions") {
    val (fam, models) = word2vecFamily(4)
    assertSameDecisions(fam, models, _ => 0.05)
  }

  test("textClass: incremental and full-recompute oracles make identical dedup decisions") {
    val (fam, models) = textClassFamily()
    assertSameDecisions(fam, models, i => textClassVariants(i).labelNoise)
  }
}

object AccuracySessionSpec {
  /** One step of a block-replacement sequence on the primary tensor. */
  private sealed trait Step
  /** Block k gets a new, perturbed array. */
  private final case class Perturb(k: Int, seed: Long) extends Step
  /** Block k takes the array block j currently has (a shared representative). */
  private final case class Share(k: Int, j: Int) extends Step
  /** Block k goes back to its original array. */
  private final case class Revert(k: Int) extends Step
}
