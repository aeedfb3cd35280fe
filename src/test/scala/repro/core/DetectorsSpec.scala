package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class DetectorsSpec extends AnyFunSuite {

  private val dim = 32
  private def vec(seed: Int, scale: Double = 1.0) = {
    val r = new Random(seed); Array.fill(dim)(r.nextGaussian() * scale)
  }
  private def mkTensor(id: Int, blocks: Seq[Array[Double]]): Tensor =
    Tensor(id, s"t$id", blocks.size, 1, blocks.zipWithIndex.map { case (d, i) =>
      TensorBlock(BlockRef(id, BlockId(i, 0)), d, 8L)
    }.toVector)

  test("default gate matches the paper: check every 5 blocks, stop at 3.5%") {
    assert(Detectors.DefaultGate == Gate(5, 0.035))
  }

  test("proposed detector is deterministic across instances") {
    val t1 = mkTensor(1, (0 until 10).map(vec(_)))
    val t2 = mkTensor(2, (0 until 10).map(i => vec(i).map(_ + 1e-3)))
    def run() = {
      val idx = Detectors.proposed(dim)
      idx.addModel(Seq(t1), None); idx.addModel(Seq(t2), None)
      (idx.numDistinct, idx.mapping)
    }
    assert(run() == run())
  }

  test("the four detectors order compression as the paper reports") {
    // Family: model 0 is the base; models 1-2 drift slightly on every block.
    val base = (0 until 40).map(i => vec(100 + i, scale = 0.05))
    def drifted(seed: Int) = base.map(b => b.map(_ + new Random(seed).nextGaussian() * 0.004))
    val models = Vector(mkTensor(1, base), mkTensor(2, drifted(7)), mkTensor(3, drifted(8)))
    def distinctOf(idx: DedupIndex): Int = {
      models.foreach(m => idx.addModel(Seq(m), None)); idx.numDistinct
    }
    val exact = distinctOf(Detectors.mistiqueExact())
    val lsh = distinctOf(Detectors.proposed(dim))
    val pairwise = distinctOf(Detectors.enhancedPairwise(threshold = 0.3))
    assert(exact == 120, s"no bit-exact duplicates exist across drifted models: $exact")
    assert(lsh <= 45, s"LSH should collapse the drifted copies: $lsh")
    assert(pairwise <= 45, s"pairwise should collapse the drifted copies: $pairwise")
  }

  test("naive pairwise merges in natural order (no magnitude sorting)") {
    // First examined block wins representative status in storage order.
    val big = vec(1, scale = 10.0); val small = vec(2, scale = 0.01)
    val t = mkTensor(1, Seq(big, small))
    val idx = Detectors.naivePairwise(threshold = 1e-6)
    idx.addModel(Seq(t), None)
    // Natural order: 'big' is indexed first and becomes distinct block 0.
    assert(idx.mapping(BlockRef(1, BlockId(0, 0))) == 0)
  }

  test("proposed examines ascending magnitude: smallest block becomes distinct block 0") {
    val big = vec(1, scale = 10.0); val small = vec(2, scale = 0.01)
    val t = mkTensor(1, Seq(big, small))
    val idx = Detectors.proposed(dim)
    idx.addModel(Seq(t), None)
    assert(idx.mapping(BlockRef(1, BlockId(1, 0))) == 0, "small-magnitude block indexed first")
  }

  test("mistiqueApprox uses banding: signature length = perms") {
    val h = new MinHashHasher(dim, perms = 64, binWidth = 0.2, seed = 1)
    assert(h.signature(vec(3)).values.size == 64)
  }
}
