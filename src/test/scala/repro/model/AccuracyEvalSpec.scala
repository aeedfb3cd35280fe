package repro.model

import org.scalatest.funsuite.AnyFunSuite
import repro.core.BlockRef
import repro.model.ModelGen._
import scala.util.Random

class AccuracyEvalSpec extends AnyFunSuite {

  private val shape = EmbeddingShape(rowBlocks = 16, colBlocks = 2,
    rowsPerBlock = 4, colsPerBlock = 4, blockVirtualBytes = 1L << 20)
  private lazy val (fam, models) = textClassFamily(shape)
  private lazy val eval = new AccuracyEval(fam, numExamples = 800, seed = 55)

  private def origLookup(m: Model): BlockRef => Array[Double] = {
    val d = blockData(Seq(m)); r => d(r)
  }

  test("validation examples index valid vocabulary rows") {
    assert(eval.examples.nonEmpty)
    assert(eval.examples.forall(_.forall(r => r >= 0 && r < shape.vocab)))
  }

  test("examples oversample hot block-rows") {
    val hotRank = fam.hot.zipWithIndex.sortBy(-_._1).map(_._2)
    val hotSet = hotRank.take(4).toSet // 4 hottest of 16 block-rows
    val inHot = eval.examples.flatten.count(r => hotSet.contains(r / shape.rowsPerBlock))
    val total = eval.examples.map(_.length).sum
    assert(inHot.toDouble / total > 0.5, s"hot fraction ${inHot.toDouble / total}")
  }

  test("original model scores high accuracy against low-noise labels") {
    val m = models(4) // labelNoise 0.20
    val lbls = eval.labels(m, 0.05)
    val acc = eval.accuracy(m, lbls, origLookup(m))
    assert(acc > 0.95, s"acc $acc")
  }

  test("higher label noise lowers starting accuracy") {
    val m = models(0)
    val accLow = eval.accuracy(m, eval.labels(m, 0.1), origLookup(m))
    val accHigh = eval.accuracy(m, eval.labels(m, 1.2), origLookup(m))
    assert(accLow > accHigh, s"$accLow !> $accHigh")
  }

  test("labels and accuracy are deterministic") {
    val m = models(1)
    val l1 = eval.labels(m, 0.3); val l2 = eval.labels(m, 0.3)
    assert(l1.toSeq == l2.toSeq)
    assert(eval.accuracy(m, l1, origLookup(m)) == eval.accuracy(m, l2, origLookup(m)))
  }

  test("perturbing hot blocks hurts accuracy far more than perturbing cold blocks") {
    val m = models(0)
    val lbls = eval.labels(m, 0.1)
    val base = eval.accuracy(m, lbls, origLookup(m))
    val hotOrder = fam.hot.zipWithIndex.sortBy(-_._1).map(_._2)
    val rnd = new Random(1)

    def perturbedLookup(blockRows: Set[Int]): BlockRef => Array[Double] = {
      val d = blockData(Seq(m))
      r => {
        val v = d(r)
        if (blockRows.contains(r.blockId.row)) v.map(_ + rnd.nextGaussian() * 0.5) else v
      }
    }
    val accHot = eval.accuracy(m, lbls, perturbedLookup(hotOrder.take(3).toSet))
    val accCold = eval.accuracy(m, lbls, perturbedLookup(hotOrder.takeRight(3).toSet))
    assert(base - accHot > 0.05, s"hot perturbation barely hurt: $base -> $accHot")
    assert(base - accCold < (base - accHot) / 2,
      s"cold perturbation hurt too much: $base -> $accCold (hot: $accHot)")
  }

  test("small drift perturbation on all blocks is nearly harmless") {
    val m = models(0)
    val lbls = eval.labels(m, 0.1)
    val base = eval.accuracy(m, lbls, origLookup(m))
    val rnd = new Random(2)
    val d = blockData(Seq(m))
    val drifted: BlockRef => Array[Double] = r => d(r).map(_ + rnd.nextGaussian() * 0.004)
    val acc = eval.accuracy(m, lbls, drifted)
    assert(base - acc < 0.03, s"drift cost too much: $base -> $acc")
  }

  test("labels equal the per-example scale formula for word2vec and textClass models") {
    val evalSeed = 77L
    for ((fam, ms) <- Seq(word2vecFamily(2), textClassFamily())) {
      val ev = new AccuracyEval(fam, numExamples = 300, seed = evalSeed)
      for (m <- ms.take(2); noise <- Seq(0.05, 0.65)) {
        val expected = ReferenceForward.labels(ev, fam.shape, m, noise, evalSeed)
        assert(ev.labels(m, noise).toSeq == expected.toSeq, s"${m.name} noise $noise")
      }
      assert(ev.logitScale(ms.head) == ReferenceForward.logitScale(ev, fam.shape, ms.head))
    }
  }

  test("logitScale is positive and deterministic") {
    val s1 = eval.logitScale(models(2)); val s2 = eval.logitScale(models(2))
    assert(s1 > 0 && s1 == s2)
  }
}
