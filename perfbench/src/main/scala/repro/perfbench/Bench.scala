package repro.perfbench

import repro.core.PagePacking.{Packing, Problem, twoStage, twoStageReusing}
import repro.core.{BlockRef, DedupIndex, Detectors, ModelAccuracy, ModelDedupStats}
import repro.device.StorageDevice
import repro.experiments.Scenarios
import repro.experiments.Scenarios.{Built, GB, HddEff, HddSeq, PageBytes, SsdEff}
import repro.model.ModelGen.{EmbeddingFamily, EmbeddingShape}
import repro.model.{AccuracyEval, Model, ModelGen}
import repro.serving.ServingReport
import repro.storage.PageStore
import scala.collection.mutable

/** One benchmark run of one workload, driving the program through its public
  * API only. End-to-end timers are always on; with tracing on, every call
  * into a layer is also a span (see [[Tracer]]).
  *
  * Set-up and ingest are repeated and reported as medians. A run has a fixed
  * *reference pass*: the first set-up, the last ingest before the timed
  * loop (the embedding workloads ingest again inside it), and the first
  * `refRounds` serving rounds (ffnn-churn: its first churn cycle). Per-layer
  * metrics and every count are taken over it, so they do not depend on how
  * much work fits into `seconds`. The timed loop runs until `seconds` have
  * passed; every op it runs feeds the end-to-end latency percentiles. An op
  * of the embedding workloads is one sweep round, a `serveAll` call for each
  * configuration; an op of ffnn-churn is one update step.
  */
final class Bench(val workload: String, val seed: Long, val seconds: Double, val tr: Tracer) {
  import Bench._

  // -- op accounting (error_rate) -------------------------------------------

  var attempted = 0
  var failed = 0
  val failures: mutable.ArrayBuffer[String] = mutable.ArrayBuffer.empty

  private def ops(n: Int, problems: Seq[String]): Unit = {
    attempted += n
    if (problems.nonEmpty) { failed += n; failures ++= problems.take(5) }
  }

  // -- collected measurements -------------------------------------------------

  val setupNanos: mutable.ArrayBuffer[Long] = mutable.ArrayBuffer.empty
  val ingestNanos: mutable.ArrayBuffer[Long] = mutable.ArrayBuffer.empty
  val opNanos: mutable.ArrayBuffer[Long] = mutable.ArrayBuffer.empty
  /** Every `serveAll` call of the run as (wall nanos, page accesses), by
    * configuration label.
    */
  val serveCalls: mutable.LinkedHashMap[String, mutable.ArrayBuffer[(Long, Long)]] =
    mutable.LinkedHashMap.empty
  var retainedHeapMb = 0.0
  /** Deterministic outputs of the reference pass, by metric name. */
  val exact: mutable.LinkedHashMap[String, Double] = mutable.LinkedHashMap.empty
  /** Per-layer times over the reference pass, taken from the spans. */
  val layers: mutable.LinkedHashMap[String, Double] = mutable.LinkedHashMap.empty
  /** Summed `ModelDedupStats.probeNanos` of the reference pass. */
  var probeSeconds = 0.0
  /** Alg. 1 outcome of every model of the reference ingest. */
  var ingestStats: Vector[ModelDedupStats] = Vector.empty
  /** The first serving round, by configuration label. */
  val firstRound: mutable.LinkedHashMap[String, ServingReport] = mutable.LinkedHashMap.empty

  private var oracleCalls = 0L
  /** Time intervals of the reference pass. */
  private val reference = mutable.ArrayBuffer.empty[(Long, Long)]

  private def timed[A](into: mutable.ArrayBuffer[Long])(body: => A): A = {
    val t0 = System.nanoTime()
    val r = body
    into += System.nanoTime() - t0
    r
  }

  /** Runs `body`; when `keep`, its interval joins the reference pass. */
  private def window[A](keep: Boolean)(body: => A): A = {
    val t0 = System.nanoTime()
    val r = body
    if (keep) reference += ((t0, System.nanoTime()))
    r
  }

  /** One timed set-up; the first one joins the reference pass. A forced GC
    * first keeps the timed loop's garbage out of the sample.
    */
  private def setup[A](body: => A): A = {
    System.gc()
    window(setupNanos.isEmpty)(timed(setupNanos)(tr.span("setup")(body)))
  }

  /** Re-runs set-up until there are `reps` samples, discarding the results.
    * This runs after the timed loop: set-ups repeated before the ingest left
    * part of their discarded output reachable, which `retained_heap_mb` then
    * counted.
    */
  private def repeatSetup(reps: Int)(body: => Any): Unit =
    while (setupNanos.size < reps) setup(body)

  private def elapsed(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  /** Counts the oracle's calls and, when tracing, makes each one a child span
    * of the `core.addmodel` call that made it.
    */
  private final class CountedOracle(inner: ModelAccuracy) extends ModelAccuracy {
    override def accuracy(lookup: BlockRef => Array[Double]): Double = {
      oracleCalls += 1
      tr.span("model.oracle")(inner.accuracy(lookup))
    }
  }

  private def heapAfterGcMb(): Double = {
    val rt = Runtime.getRuntime
    System.gc(); System.gc()
    (rt.totalMemory() - rt.freeMemory()) / (1024.0 * 1024.0)
  }

  // -- the dedup store pipeline ----------------------------------------------

  private final case class Ingested(idx: DedupIndex, stats: Vector[ModelDedupStats], problem: Problem,
                                    packing: Packing, store: PageStore)

  /** Alg. 1 over `models` into a fresh index, then packing and a loaded store;
    * one op per model, checked once the store is loaded.
    */
  private def ingest(models: Seq[Model], oracles: Model => Option[ModelAccuracy], l: Int,
                     lshW: Double): Ingested = {
    oracleCalls = 0
    val in = timed(ingestNanos)(tr.span("ingest") {
      val idx = Detectors.proposed(models.head.tensors.head.blocks.head.data.length, w = lshW)
      val stats = models.toVector.map(m => tr.span("core.addmodel")(idx.addModel(m.tensors, oracles(m))))
      val problem = tr.span("core.problem")(Problem.fromDedup(idx, l))
      val packing = tr.span("core.pack")(twoStage(problem))
      val store = new PageStore(PageBytes)
      tr.span("storage.load")(store.load(packing, problem))
      Ingested(idx, stats, problem, packing, store)
    })
    ops(models.size, storeChecks(in.idx, in.problem, in.packing, in.store, models))
    in
  }

  /** The order in which one `serveAll` call requests the models: the tables'
    * order at seed 0, else a permutation drawn from the seed.
    */
  private def requestOrder(ids: Seq[Int]): Seq[Int] =
    if (seed == 0) ids else new scala.util.Random(seed).shuffle(ids)

  /** One `serveAll` call, timed as one op. Its page accesses must equal the
    * trace length, and a repeated call must reproduce `expect` exactly.
    */
  private def serveOnce(b: Built, cfg: ServeCfg, c: Consts,
                        expect: Option[ServingReport] = None): ServingReport = {
    val t0 = System.nanoTime()
    val rep = tr.span("serving.serve")(Scenarios.serve(b, requestOrder(b.modelIds), cfg.device,
      cfg.poolGb * GB, cfg.dedup, cfg.optimized, c.computePerModel, c.inputBytes, c.pinnedPerModel,
      c.probeRounds))
    serveCalls.getOrElseUpdate(cfg.label, mutable.ArrayBuffer.empty) +=
      ((System.nanoTime() - t0, rep.hits + rep.misses))
    val store = if (cfg.dedup) b.store else b.plainStore
    val expected = b.modelIds.map { m =>
      math.max(1L, c.inputBytes / PageBytes) +
        c.probeRounds.toLong * b.modelTensors(m).map(t => store.pagesOf(t).size).sum
    }.sum
    val problems = mutable.ArrayBuffer.empty[String]
    if (rep.hits + rep.misses != expected)
      problems += s"${cfg.label}: ${rep.hits + rep.misses} page accesses, trace has $expected"
    if (expect.exists(_ != rep)) problems += s"${cfg.label}: $rep differs from the first call's ${expect.get}"
    ops(1, problems.toSeq)
    rep
  }

  private def recordStats(stats: Seq[ModelDedupStats]): Unit = {
    val blocks = stats.map(_.total).sum
    val merged = stats.map(_.merged).sum
    exact("core.blocks") = blocks
    exact("core.merged") = merged
    exact("core.merge_ratio") = merged.toDouble / blocks
    exact("core.probes") = stats.map(_.probes).sum
    exact("core.gate_stops") = stats.count(_.stoppedEarly)
    exact("core.accuracy_drop_max_pct") = stats.map(_.accuracyDrop).max * 100
    exact("model.oracle_calls") = oracleCalls
    probeSeconds = stats.map(_.probeNanos).sum / 1e9
  }

  private def recordStore(idx: DedupIndex, problem: Problem, packing: Packing, store: PageStore,
                          plain: PageStore): Unit = {
    val pages = packing.distinctPages
    exact("core.distinct_blocks") = idx.numDistinct
    exact("core.groups") = idx.numGroups
    exact("core.index_leak_ratio") = idx.numDistinct.toDouble / idx.mapping.values.toSet.size
    exact("core.pages") = pages.size
    exact("core.page_fill") = pages.map(_.size).sum.toDouble / (pages.size.toLong * problem.l)
    exact("storage.pages") = store.numPages
    exact("storage.shared_pages") = store.allPages.count(p => store.refCount(p.id) > 1)
    val read = problem.tensors.keys.toSeq.map(t => store.pagesOf(t).map(store.page(_).items.size).sum).sum
    exact("storage.read_amplification") = read.toDouble / problem.tensors.values.map(_.size).sum
    exact("storage_ratio") = store.totalBytes.toDouble / plain.totalBytes
  }

  /** Buffer-pool and modelled numbers of one sweep round; the call and page
    * access counts of the whole reference pass.
    */
  private def recordServing(round: Seq[ServingReport], calls: Int, accesses: Long): Unit = {
    val hits = round.map(_.hits).sum
    val misses = round.map(_.misses).sum
    exact("bufferpool.hits") = hits
    exact("bufferpool.misses") = misses
    exact("bufferpool.hit_ratio") = hits.toDouble / (hits + misses)
    exact("serving.page_accesses") = accesses
    exact("serving.calls") = calls
    exact("modelled_serve_s") = round.map(_.totalSeconds).sum
    exact("device.modelled_io_s") = round.map(_.ioSeconds).sum
  }

  private def plainStoreOf(models: Seq[Model], l: Int): (Problem, PageStore) = {
    val plain = Scenarios.plainProblemOf(models, l)
    val store = new PageStore(PageBytes)
    store.load(twoStage(plain), plain)
    (plain, store)
  }

  // -- embedding workloads (w2v12-evict, tcfine-ingest) ------------------------

  private def runEmbedding(w: EmbeddingWorkload): Unit = {
    def build() = {
      val (fam, models) = tr.span("model.gen")(w.family())
      val eval = tr.span("model.eval")(new AccuracyEval(fam))
      val labels = tr.span("model.labels")(models.map(m => m.id -> eval.labels(m, w.labelNoise(m.id))).toMap)
      (models, eval, labels)
    }
    val (models, eval, labels) = setup(build())
    val oracle = (m: Model) => Some(new CountedOracle(new Scenarios.EvalAdapter(eval, m, labels(m.id))))
    val in = (1 to w.ingestReps).map(rep => window(rep == w.ingestReps)(ingest(models, oracle, w.l, w.lshW))).last
    ingestStats = in.stats
    retainedHeapMb = heapAfterGcMb()

    // The no-dedup store serves the w/o-dedup configuration and storage_ratio.
    val (plainProblem, plainStore) = plainStoreOf(models, w.l)
    val b = Built(workload, models, in.stats, in.idx, in.problem, in.packing, in.store, plainProblem,
      plainStore, models.flatMap(m => m.tensors.map(_.id -> m.id)).toMap,
      models.map(m => m.id -> m.tensors.map(_.id)).toMap, Some(eval), labels)
    recordStats(in.stats)
    recordStore(in.idx, in.problem, in.packing, in.store, plainStore)

    val sweep = for (d <- Seq(SsdEff, HddEff); p <- Seq(15, 10, 8); (dd, o) <- w.configs)
      yield ServeCfg(d, p, dd, o)
    val first = mutable.ArrayBuffer.empty[ServingReport]
    val loopStart = System.nanoTime()
    var round = 0
    var loopIngests = 0
    while (round < w.refRounds || elapsed(loopStart) < seconds) {
      tr.span("serve")(timed(opNanos)(sweep.zipWithIndex.foreach { case (cfg, i) =>
        val rep = serveOnce(b, cfg, w.consts, first.lift(i))
        if (round == 0) { first += rep; firstRound(cfg.label) = rep }
      }))
      round += 1
      if (round == w.refRounds) reference += ((loopStart, System.nanoTime()))
      // Further ingests at even marks of the loop, so that the ingest_s
      // samples span the whole run rather than one stretch of it.
      if (round >= w.refRounds && loopIngests < w.loopIngests &&
          elapsed(loopStart) >= seconds * (loopIngests + 1) / (w.loopIngests + 1)) {
        ingest(models, oracle, w.l, w.lshW)
        loopIngests += 1
      }
    }
    recordServing(first.toVector, calls = sweep.size * w.refRounds,
      accesses = first.map(r => r.hits + r.misses).sum * w.refRounds)
    repeatSetup(w.setupReps)(build())
  }

  // -- ffnn-churn ---------------------------------------------------------------

  private def runFfnn(): Unit = {
    def build() = tr.span("model.gen")(ModelGen.ffnnFamily(FfnnLive + FfnnSteps, seed = FfnnSeed + seed))
    val models = setup(build())
    val c = Consts(Scenarios.Ffnn.computePerModel, Scenarios.Ffnn.inputBytes,
      Scenarios.Ffnn.pinnedPerModel, Scenarios.Ffnn.probeRounds)
    val sweep = Seq(9, 13).map(p => ServeCfg(HddSeq, p, dedup = true, optimized = true))
    val t2m = models.flatMap(m => m.tensors.map(_.id -> m.id)).toMap
    val l = Scenarios.BlocksPerPage
    val loopStart = System.nanoTime()
    var cycle = 0
    while (cycle == 0 || elapsed(loopStart) < seconds) {
      val cycleStart = System.nanoTime()
      var live = models.take(FfnnLive)
      val in = ingest(live, _ => None, l, FfnnLshW)
      val idx = in.idx
      var (stats, problem, packing, store) = (in.stats, in.problem, in.packing, in.store)
      var plainStore: PageStore = null
      if (cycle == 0) {
        ingestStats = stats
        retainedHeapMb = heapAfterGcMb()
        plainStore = plainStoreOf(live, l)._2
      }
      var reused, discarded, created = 0
      val reports = mutable.ArrayBuffer.empty[ServingReport]
      var step = 0
      while (step < FfnnSteps && (cycle == 0 || elapsed(loopStart) < seconds)) {
        val out = live.head
        val next = models(FfnnLive + step)
        live = live.tail :+ next
        val prevPages = packing.distinctPages
        val prevProblem = problem
        val (addStats, nextProblem, nextPacking, nextStore) = timed(opNanos)(tr.span("update") {
          tr.span("core.remove")(out.tensors.foreach(t => idx.removeTensor(t.id)))
          tr.span("storage.remove")(out.tensors.foreach(t => store.removeTensor(t.id)))
          val s = tr.span("core.addmodel")(idx.addModel(next.tensors, None))
          val p = tr.span("core.problem")(Problem.fromDedup(idx, l))
          val k = tr.span("core.pack")(twoStageReusing(p, prevPages))
          val st = new PageStore(PageBytes)
          tr.span("storage.load")(st.load(k, p))
          (s, p, k, st)
        })
        // Survivors must stay exactly covered by the store they were removed from.
        val problems = mutable.ArrayBuffer.empty[String]
        for (t <- live.init.flatMap(_.tensors).map(_.id) if itemsOf(store, t) != prevProblem.tensors(t).toSet)
          problems += s"step $step: tensor $t not exactly covered after removing model ${out.id}"
        problems ++= storeChecks(idx, nextProblem, nextPacking, nextStore, live)
        ops(1, problems.toSeq)
        stats :+= addStats
        problem = nextProblem; packing = nextPacking; store = nextStore
        val pages = packing.distinctPages
        reused += pages.count(prevPages.contains)
        discarded += prevPages.count(pg => !pages.contains(pg))
        created += pages.count(pg => !prevPages.contains(pg))

        // The sweep is dedup-only, so the no-dedup fields just repeat the store.
        val b = Built(workload, live, stats, idx, problem, packing, store, problem, store, t2m,
          live.map(m => m.id -> m.tensors.map(_.id)).toMap, None, Map.empty)
        tr.span("serve")(sweep.foreach { cfg =>
          val rep = serveOnce(b, cfg, c)
          if (cycle == 0 && step == 0) firstRound(cfg.label) = rep
          reports += rep
        })
        step += 1
      }
      if (cycle == 0) {
        reference += ((cycleStart, System.nanoTime()))
        recordStats(stats)
        recordStore(idx, problem, packing, store, plainStore)
        exact("core.pages_reused") = reused
        exact("core.pages_discarded") = discarded
        exact("core.pages_created") = created
        // One round of ffnn-churn is its first churn cycle: a serve pair per step.
        recordServing(reports.toSeq, reports.size, reports.map(r => r.hits + r.misses).sum)
      }
      cycle += 1
    }
    // Churn cycles give few ingest samples; add fresh ingests for the median.
    while (ingestNanos.size < FfnnIngestReps) ingest(models.take(FfnnLive), _ => None, l, FfnnLshW)
    repeatSetup(FfnnSetupReps)(build())
  }

  // -- checks -----------------------------------------------------------------

  private def itemsOf(store: PageStore, t: Int): Set[Int] =
    store.pagesOf(t).iterator.flatMap(id => store.page(id).items).toSet

  /** The per-op invariants of the store (constraint 5) and the index. */
  private def storeChecks(idx: DedupIndex, problem: Problem, packing: Packing, store: PageStore,
                          live: Seq[Model]): Seq[String] = {
    val out = mutable.ArrayBuffer.empty[String]
    val liveTensors = live.flatMap(_.tensors.map(_.id)).toSet
    if (problem.tensors.keySet != liveTensors)
      out += s"problem has tensors ${problem.tensors.keySet.toSeq.sorted}, live are ${liveTensors.toSeq.sorted}"
    for (t <- problem.tensors.keys.toSeq.sorted) {
      if (!packing.coversExactly(problem, t)) out += s"packing does not cover tensor $t exactly"
      if (itemsOf(store, t) != problem.tensors(t).toSet) out += s"store pages of tensor $t differ from its items"
    }
    if (!packing.capacityRespected(problem.l)) out += s"a page holds more than ${problem.l} blocks"
    val mapping = idx.mapping
    val unmapped = live.iterator.flatMap(_.tensors).flatMap(_.blocks)
      .count(b => !mapping.get(b.ref).exists(i => i >= 0 && i < idx.numDistinct))
    if (unmapped > 0) out += s"$unmapped live logical blocks are not mapped"
    out.toSeq
  }

  // -- per-layer snapshot -----------------------------------------------------

  private def snapshotLayers(): Unit = if (tr.enabled) {
    val t = tr.totals(reference.toSeq)
    def total(n: String) = t.get(n).map(_._1 / 1e9).getOrElse(0.0)
    layers("model.gen_s") = total("model.gen")
    layers("model.labels_s") = total("model.labels")
    layers("model.oracle_s") = total("model.oracle")
    layers("core.addmodel_s") = total("core.addmodel")
    layers("core.addmodel_self_s") = t.get("core.addmodel").map(_._2 / 1e9).getOrElse(0.0)
    layers("core.remove_s") = total("core.remove")
    layers("core.problem_s") = total("core.problem")
    layers("core.pack_s") = total("core.pack")
    layers("storage.load_s") = total("storage.load")
    layers("storage.remove_s") = total("storage.remove")
    layers("serving.serve_s") = total("serving.serve")
  }

  def run(): Unit = {
    tr.span(workload)(if (workload == "ffnn-churn") runFfnn() else runEmbedding(Embedding(workload)))
    snapshotLayers()
  }
}

object Bench {

  /** The tables' ffnn family seed; ffnn-churn adds the benchmark seed. */
  val FfnnSeed = 99L

  final case class Consts(computePerModel: Double, inputBytes: Long, pinnedPerModel: Long,
                          probeRounds: Int)

  final case class ServeCfg(device: StorageDevice, poolGb: Int, dedup: Boolean, optimized: Boolean) {
    def label: String = s"${device.name}/${poolGb}GB/" +
      (if (!dedup) "no-dedup" else if (optimized) "dedup+optimized" else "dedup")
  }

  final case class EmbeddingWorkload(family: () => (EmbeddingFamily, Vector[Model]),
                                     labelNoise: Int => Double, l: Int, lshW: Double,
                                     configs: Seq[(Boolean, Boolean)], consts: Consts,
                                     setupReps: Int, ingestReps: Int, loopIngests: Int,
                                     refRounds: Int)

  private val W2vConsts = Consts(Scenarios.W2v.computePerModel, Scenarios.W2v.inputBytes,
    Scenarios.W2v.pinnedPerModel, 8)
  private val TcConsts = Consts(Scenarios.Tc.computePerModel, Scenarios.Tc.inputBytes,
    Scenarios.Tc.pinnedPerModel, 8)

  /** The 300x300 blocking of `Scenarios.textClassFine`. */
  val TcFineShape: EmbeddingShape = EmbeddingShape(rowBlocks = 3334, colBlocks = 2, rowsPerBlock = 2,
    colsPerBlock = 8, blockVirtualBytes = 720_000L)

  /** The tables' families, labels noise, page capacity and LSH width
    * (`Scenarios.word2vec(12)`, `Scenarios.textClassFine`).
    */
  val Embedding: Map[String, EmbeddingWorkload] = Map(
    "w2v12-evict" -> EmbeddingWorkload(
      () => ModelGen.word2vecFamily(12), _ => 0.05, Scenarios.BlocksPerPage, 0.3,
      Seq((false, false), (true, false), (true, true)), W2vConsts,
      setupReps = 3, ingestReps = 2, loopIngests = 3, refRounds = 5),
    "tcfine-ingest" -> EmbeddingWorkload(
      () => ModelGen.textClassFamily(TcFineShape),
      i => ModelGen.textClassVariants(i).labelNoise, 88, 0.08,
      Seq((true, false), (true, true)), TcConsts,
      setupReps = 2, ingestReps = 1, loopIngests = 0, refRounds = 50))

  /** ffnn-churn: three live models, a cycle of 40 update steps, the tables'
    * LSH width (`Scenarios.build`'s default).
    */
  val FfnnLive = 3
  val FfnnSteps = 40
  val FfnnSetupReps = 20
  val FfnnIngestReps = 15
  val FfnnLshW = 0.3

  val Workloads: Seq[String] = Seq("w2v12-evict", "tcfine-ingest", "ffnn-churn")
}
