package repro.perfbench

import repro.core.ModelDedupStats
import repro.experiments.Scenarios
import repro.experiments.Scenarios.{GB, HddEff, SsdEff, W2v}
import org.scalatest.funsuite.AnyFunSuite

/** The benchmark's own checks: its counts and modelled numbers repeat exactly,
  * it measures the same program the tables print, and its correctness checks
  * and the w2v12-evict shape hold on a held-out seed.
  */
class PerfbenchSpec extends AnyFunSuite {

  /** A run with the shortest timed loop: just the reference pass. */
  private def run(workload: String, seed: Long, trace: Boolean): Bench = {
    val b = new Bench(workload, seed, seconds = 0.0, new Tracer(trace))
    b.run()
    assert(b.failures.isEmpty, b.failures.mkString("; "))
    assert(b.failed == 0 && b.attempted > 0)
    b
  }

  private val HeldOutSeed = 20261017L

  /** Alg. 1 outcome per model (accuracies, merges, gate), without probe time. */
  private def withoutTimes(stats: Seq[ModelDedupStats]) = stats.map(_.copy(probeNanos = 0L))

  private lazy val untraced = Bench.Workloads.map(w => w -> run(w, 0L, trace = false)).toMap

  for (w <- Bench.Workloads) test(s"$w: counts and modelled numbers repeat exactly, traced or not") {
    val traced = run(w, 0L, trace = true)
    assert(traced.exact == untraced(w).exact)
    assert(traced.firstRound == untraced(w).firstRound)
    assert(traced.tr.numSpans > 0 && untraced(w).tr.numSpans == 0)
    // Every per-layer metric is reported, with a finite value.
    val names = Main.perLayer(traced).map(_.name)
    assert(names.distinct.size == names.size)
    assert(Main.perLayer(traced).forall(m => !m.value.isNaN && !m.value.isInfinite))
  }

  test("w2v12-evict measures the build of Scenarios.word2vec(12)") {
    val bench = untraced("w2v12-evict")
    val b = Scenarios.word2vec(12)
    assert(bench.exact("core.distinct_blocks") == b.index.numDistinct)
    assert(bench.exact("core.pages") == b.packing.numDistinctPages)
    assert(bench.exact("storage.pages") == b.store.numPages)
    assert(withoutTimes(bench.ingestStats) == withoutTimes(b.stats))
    // Table 3, matmul fp64, 12 models, netsDB: SSD, 15 GB, dedup + optimized caching.
    val table3 = Scenarios.serve(b, b.modelIds, SsdEff, 15 * GB, dedup = true, optimized = true,
      W2v.computePerModel, W2v.inputBytes, W2v.pinnedPerModel)
    val mine = bench.firstRound("SSD/15GB/dedup+optimized")
    assert(mine == table3)
    assert(f"${mine.totalSeconds}%.0f" == "878")
  }

  test("tcfine-ingest measures the build of Scenarios.textClassFine") {
    val bench = untraced("tcfine-ingest")
    val b = Scenarios.textClassFine
    assert(bench.exact("core.distinct_blocks") == b.index.numDistinct)
    assert(bench.exact("core.pages") == b.packing.numDistinctPages)
    assert(bench.exact("storage.pages") == b.store.numPages)
    assert(withoutTimes(bench.ingestStats) == withoutTimes(b.stats))
  }

  for (w <- Bench.Workloads) test(s"$w: checks hold on held-out seed $HeldOutSeed") {
    val b = run(w, HeldOutSeed, trace = false)
    if (w == "w2v12-evict")
      for (d <- Seq(SsdEff, HddEff)) {
        val opt = b.firstRound(s"${d.name}/8GB/dedup+optimized").totalSeconds
        val plain = b.firstRound(s"${d.name}/8GB/dedup").totalSeconds
        assert(opt <= plain, s"${d.name}/8GB: dedup+optimized $opt s > dedup $plain s")
      }
  }
}
