package repro.storage

import org.scalatest.funsuite.AnyFunSuite
import repro.core.PagePacking.{Problem, twoStage}
import repro.core.Detectors
import repro.experiments.Scenarios
import repro.model.ModelGen
import repro.model.ModelGen.EmbeddingShape

/** End-to-end lifecycle: generate a family, dedup, pack, store, then remove
  * and re-add models — the paper's Sec. 3 "Model Removal and Updates" across
  * the whole stack.
  */
class LifecycleSpec extends AnyFunSuite {

  private val shape = EmbeddingShape(rowBlocks = 16, colBlocks = 2,
    rowsPerBlock = 4, colsPerBlock = 4, blockVirtualBytes = 1L << 20)

  private def pipeline(numModels: Int) = {
    val (_, models) = ModelGen.word2vecFamily(numModels, shape)
    val idx = Detectors.proposed(shape.blockDim)
    models.foreach(m => idx.addModel(m.tensors, None))
    val problem = Problem.fromDedup(idx, l = 4)
    val packing = twoStage(problem)
    val store = new PageStore(1L << 20)
    store.load(packing, problem)
    (models, idx, problem, packing, store)
  }

  test("full pipeline: every model is exactly covered by its pages") {
    val (models, _, problem, packing, store) = pipeline(3)
    for (m <- models) {
      val tid = m.primary.id
      assert(packing.coversExactly(problem, tid), s"tensor $tid not covered")
      val items = store.pagesOf(tid).flatMap(id => store.page(id).items).toSet
      assert(items == problem.tensors(tid).toSet)
    }
  }

  test("dedup reduces stored pages versus per-model storage") {
    val (models, _, _, _, store) = pipeline(3)
    val plainPages = models.map(m => (m.primary.numBlocks + 3) / 4).sum
    assert(store.numPages < plainPages,
      s"${store.numPages} stored vs $plainPages without dedup")
  }

  test("removing one model keeps the rest intact and exactly covered") {
    val (models, idx, problem, _, store) = pipeline(3)
    val victim = models.head.primary.id
    store.removeTensor(victim)
    idx.removeTensor(victim)
    for (m <- models.tail) {
      val tid = m.primary.id
      val items = store.pagesOf(tid).flatMap(id => store.page(id).items).toSet
      assert(items == problem.tensors(tid).toSet, s"tensor $tid broken after removal")
    }
    assert(idx.mapping.keySet.forall(_.tensorId != victim))
  }

  test("removing all models empties both index and store") {
    val (models, idx, _, _, store) = pipeline(2)
    models.foreach { m => store.removeTensor(m.primary.id); idx.removeTensor(m.primary.id) }
    assert(store.numPages == 0 && idx.numDistinct >= 0 && idx.mapping.isEmpty && idx.numGroups == 0)
    val emptied = Problem.fromDedup(idx, l = 4)
    assert(emptied.tensors.isEmpty && emptied.owners.isEmpty)
  }

  test("update = remove + re-add reuses the surviving index groups") {
    val (models, idx, _, _, _) = pipeline(2)
    val m0 = models.head
    val before = idx.numGroups
    idx.removeTensor(m0.primary.id)
    val stats = idx.addModel(m0.tensors, None)
    // Re-adding an identical model should merge into groups created by the
    // other model's (near-identical) blocks or its own surviving groups.
    assert(stats.merged > m0.primary.numBlocks / 2,
      s"re-added model only merged ${stats.merged}/${m0.primary.numBlocks}")
    assert(idx.numGroups <= before + m0.primary.numBlocks)
  }

  test("paper-scale scenario invariants: textClass store covers all five models") {
    val b = Scenarios.textClass
    for (m <- b.models) {
      val tid = m.primary.id
      assert(b.packing.coversExactly(b.problem, tid))
      assert(b.store.pagesOf(tid).nonEmpty)
    }
    // Total bytes reported at paper scale: 84 pages of 64 MB ≈ 5.3 GB.
    assert(b.store.totalBytes > (4L << 30) && b.store.totalBytes < (7L << 30))
  }
}
