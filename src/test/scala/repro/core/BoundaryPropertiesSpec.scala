package repro.core

import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite

/** The input boundary of `Tensor` and `DedupIndex.addModel`, drawn at random
  * against an index holding 0–3 live tensors: a malformed tensor (a foreign
  * ref, swapped or repeated positions, a grid that does not match its blocks)
  * or a malformed model (no blocks, mixed block lengths, a NaN or infinite
  * weight, a tensor that is already live or is listed twice). Every call must
  * throw `IllegalArgumentException` whose message names the bad value, and
  * must leave the index as it was. Any other exception fails the property.
  */
class BoundaryPropertiesSpec extends AnyFunSuite {
  import BoundaryPropertiesSpec.Bad

  private val dim = 8

  /** A row-major tensor on a random grid of 1–3 x 1–3 blocks. */
  private def tensorGen(id: Int): Gen[Tensor] = for {
    rows <- Gen.choose(1, 3)
    cols <- Gen.choose(1, 3)
    data <- Gen.listOfN(rows * cols, Gen.listOfN(dim, Gen.choose(-1.0, 1.0)))
  } yield Tensor.tabulate(id, s"t$id", rows, cols, dim, 8L)((r, c) => data(r * cols + c).toArray)

  /** Two distinct positions of a tensor with `n >= 2` blocks. */
  private def twoPositions(n: Int): Gen[(Int, Int)] = for {
    i <- Gen.choose(0, n - 1)
    d <- Gen.choose(1, n - 1)
  } yield (i, (i + d) % n)

  /** A tensor whose blocks break the row-major layout. */
  private def badTensorGen(id: Int): Gen[Bad] = tensorGen(id).flatMap { t =>
    val bs = t.blocks
    val n = bs.size
    val foreign = for (i <- Gen.choose(0, n - 1); other <- Gen.oneOf(id + 1, id + 7, -1)) yield {
      val ref = BlockRef(other, bs(i).ref.blockId)
      Bad("foreign ref", s"block $i carries $ref", _ => t.copy(blocks = bs.updated(i, bs(i).copy(ref = ref))))
    }
    val swapped = twoPositions(n).map { case (i, j) =>
      val first = math.min(i, j)
      Bad("swapped positions", s"block $first carries ${bs(i + j - first).ref}",
        _ => t.copy(blocks = bs.updated(i, bs(j)).updated(j, bs(i))))
    }
    val repeated = twoPositions(n).map { case (i, j) =>
      Bad("repeated position", s"block $j carries ${bs(i).ref}", _ => t.copy(blocks = bs.updated(j, bs(i))))
    }
    val grid = Gen.frequency(
      4 -> Gen.zip(Gen.choose(-1, 4), Gen.choose(-1, 4)).map { case (r, c) =>
        val (rows, cols) = if (r >= 0 && c >= 0 && r * c == n) (r, c + 1) else (r, c)
        Bad("grid mismatch", s"$n blocks != grid $rows x $cols", _ => Tensor(id, t.name, rows, cols, bs))
      },
      // 65536 * 65536 is 0 in Int arithmetic.
      1 -> Gen.const(Bad("grid mismatch", "0 blocks != grid 65536 x 65536",
        _ => Tensor(id, t.name, 65536, 65536, Vector.empty))))
    if (n == 1) Gen.oneOf(foreign, grid) else Gen.oneOf(foreign, swapped, repeated, grid)
  }

  /** A model of well-formed tensors that `addModel` must reject. */
  private def badModelGen(live: Seq[Tensor], id: Int): Gen[Bad] = {
    val noBlocks = Gen.oneOf(
      Bad("no blocks", "model with tensors [] has no blocks", _.addModel(Nil, None)),
      Bad("no blocks", s"model with tensors [$id] has no blocks",
        _.addModel(Seq(Tensor(id, s"t$id", 0, 3, Vector.empty)), None)))
    // The bad block sits in the second tensor, so it is never the model's
    // first block, which sets the dimension of an empty index.
    val mixed = for {
      first <- tensorGen(id)
      t <- tensorGen(id + 1)
      i <- Gen.choose(0, t.numBlocks - 1)
      len <- Gen.oneOf(1, dim - 1, dim + 1, 3 * dim)
    } yield {
      val bad = t.copy(blocks = t.blocks.updated(i, t.blocks(i).copy(data = new Array[Double](len))))
      Bad("mixed lengths", s"tensor ${t.name} (id ${t.id}): block ${t.blocks(i).ref.blockId} has length $len, " +
        s"index dimension is $dim", _.addModel(Seq(first, bad), None))
    }
    val nonFinite = for {
      t <- tensorGen(id)
      i <- Gen.choose(0, t.numBlocks - 1)
      q <- Gen.choose(0, dim - 1)
      x <- Gen.oneOf(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)
    } yield {
      val data = t.blocks(i).data.clone()
      data(q) = x
      val bad = t.copy(blocks = t.blocks.updated(i, t.blocks(i).copy(data = data)))
      Bad("non-finite weight", s"tensor ${t.name} (id ${t.id}): block ${t.blocks(i).ref.blockId} " +
        s"has the non-finite weight $x at position $q", _.addModel(Seq(bad), None))
    }
    val twice = for (t <- tensorGen(id); again <- tensorGen(id)) yield
      Bad("listed twice", s"tensor ${t.name} (id $id) appears twice in the model", _.addModel(Seq(t, again), None))
    val reAdd = for (t <- tensorGen(id); old <- Gen.oneOf(live)) yield
      Bad("live tensor", s"tensor ${old.name} (id ${old.id}) is already in the index",
        _.addModel(Seq(t, old), None))
    if (live.isEmpty) Gen.oneOf(noBlocks, mixed, nonFinite, twice)
    else Gen.oneOf(noBlocks, mixed, nonFinite, twice, reAdd)
  }

  private val caseGen: Gen[(List[Tensor], Bad)] = for {
    k <- Gen.choose(0, 3)
    live <- Gen.sequence[List[Tensor], Tensor]((1 to k).map(tensorGen))
    bad <- Gen.oneOf(badTensorGen(k + 1), badModelGen(live, k + 1))
  } yield (live, bad)

  private def state(idx: DedupIndex) =
    (idx.mapping, idx.logicalItems, idx.distinct.map(_.ref), idx.numGroups, idx.avgProbeSeconds)

  test("property: malformed tensors and models fail by name and leave the index unchanged") {
    val drawn = Iterator.range(1, 301).map { seed =>
      val (live, bad) = caseGen.pureApply(Gen.Parameters.default, Seed(seed.toLong))
      val idx = Detectors.proposed(dim)
      live.foreach(t => idx.addModel(Seq(t), None))
      val before = state(idx)
      withClue(s"seed $seed, ${bad.kind}:") {
        val e = intercept[IllegalArgumentException](bad.call(idx))
        assert(e.getMessage.contains(bad.expected), e.getMessage)
        assert(state(idx) == before)
      }
      bad.kind
    }.toSet
    assert(drawn == Set("foreign ref", "swapped positions", "repeated position", "grid mismatch", "no blocks",
      "mixed lengths", "non-finite weight", "listed twice", "live tensor"))
  }
}

object BoundaryPropertiesSpec {
  /** One malformed call, the kind of defect it carries, and the text its
    * message must contain.
    */
  private final case class Bad(kind: String, expected: String, call: DedupIndex => Any)
}
