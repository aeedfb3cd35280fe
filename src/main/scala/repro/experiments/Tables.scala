package repro.experiments

import repro.core.PagePacking
import repro.core.PagePacking.{Packing, Problem}
import repro.core.{DedupIndex, Detectors, ModelDedupStats}
import repro.device.{InputSource, StorageDevice}
import repro.model.{AccuracyEval, Compression, Model, ModelGen}
import repro.serving.{TfBaseline, TfConfig}
import repro.storage.PageStore
import Scenarios._

/** One harness per evaluation table. Each returns a typed [[Tables.Table]]
  * whose rows are printed by the bench suites and the spark-submit job;
  * EXPERIMENTS.md records these rows next to the paper's.
  */
object Tables {

  final case class Table(id: String, title: String, header: Seq[String], rows: Seq[Seq[String]]) {
    def render: String = {
      val all = header +: rows
      val widths = header.indices.map(i => all.map(r => r(i).length).max)
      def line(r: Seq[String]) =
        r.lazyZip(widths).map((c, w) => c.padTo(w, ' ')).mkString("| ", " | ", " |")
      val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
      (s"### $id — $title" +: line(header) +: sep +: rows.map(line)).mkString("\n")
    }
  }

  private def secs(d: Double): String = f"$d%.0f"
  private def pct(d: Double): String = f"${d * 100}%.2f%%"

  // ----------------------------------------------------------------------
  // Table 1: word2vec serving latency vs number of models (15 GB pool).
  // ----------------------------------------------------------------------
  def table1(): Table = {
    val rows = for {
      disk <- Seq(SsdEff, HddEff)
      n <- Seq(2, 3, 4, 6)
    } yield {
      val b = word2vec(n)
      val ids = b.modelIds
      val base = serve(b, ids, disk, 15 * GB, dedup = false, optimized = false,
        W2v.computePerModel, W2v.inputBytes, W2v.pinnedPerModel)
      val opt = serve(b, ids, disk, 15 * GB, dedup = true, optimized = true,
        W2v.computePerModel, W2v.inputBytes, W2v.pinnedPerModel)
      Seq(n.toString, disk.name, secs(base.totalSeconds), secs(opt.totalSeconds))
    }
    // Present SSD rows first like the paper.
    Table("Table 1", "Word2Vec overall latency, 15 GB buffer pool (seconds)",
      Seq("num models", "disk type", "w/o dedup", "w/ dedup & optimized caching"),
      rows.sortBy(r => (r(1), r(0).toInt))(Ordering.Tuple2(Ordering.String.reverse, Ordering.Int)))
  }

  // ----------------------------------------------------------------------
  // Table 2: word2vec, six models, pool-size sweep, three configs.
  // ----------------------------------------------------------------------
  def table2(): Table = poolSweep("Table 2",
    "Word2Vec latency for six models across storage configurations (seconds)", word2vec(6),
    Seq(SsdEff, HddEff), Seq(15, 10, 8), W2v.computePerModel, W2v.inputBytes, W2v.pinnedPerModel)

  /** Tables 2, 6 and 7: one row per disk and pool size, serving every model
    * w/o dedup, w/ dedup, and w/ dedup & optimized caching.
    */
  private def poolSweep(id: String, title: String, b: Built, disks: Seq[StorageDevice], pools: Seq[Int],
                        computePerModel: Double, inputBytes: Long, pinnedPerModel: Long,
                        probeRounds: Int = 8): Table = {
    val rows = for (disk <- disks; pool <- pools) yield {
      def run(dedup: Boolean, opt: Boolean) = secs(serve(b, b.modelIds, disk, pool.toLong * GB, dedup, opt,
        computePerModel, inputBytes, pinnedPerModel, probeRounds).totalSeconds)
      Seq(disk.name, s"${pool}GB", run(dedup = false, opt = false), run(dedup = true, opt = false),
        run(dedup = true, opt = true))
    }
    Table(id, title,
      Seq("disk type", "buffer pool size", "w/o dedup", "w/ dedup", "w/ dedup & optimized caching"), rows)
  }

  // ----------------------------------------------------------------------
  // Table 3: netsDB vs TensorFlow for word2vec serving.
  // ----------------------------------------------------------------------
  /** Calibrated input-source factors (EXPERIMENTS.md §calibration): CSV
    * parsing ~14x raw SSD transfer; single-BLOB JDBC ~2.1x; the paper's
    * 400-BLOB PostgreSQL table ~21.8x.
    */
  private val Csv = InputSource("TF-file", 14.2)
  private val DbBlob = InputSource("TF-DB", 2.1)
  private val Db400 = InputSource("TF-DB", 21.8)

  def table3(): Table = {
    val overhead = 1.25 // TF runtime keeps ~25 % extra per resident model
    def tfRow(n: Int, modelGb: Double, computePerModel: Double, gpuFactor: Double,
              inputBytes: Long, cpuInterGb: Double, gpuExtraPerModelGb: Double,
              dbSource: InputSource): Seq[String] = {
      val models = Seq.fill(n)((modelGb * overhead * GB).toLong)
      def cpu(src: InputSource) = TfBaseline.cell(TfBaseline.serve(
        TfConfig(30 * GB, SsdEff, src), models, inputBytes,
        (cpuInterGb * GB).toLong, computePerModel))
      def gpu(src: InputSource) = TfBaseline.cell(TfBaseline.serve(
        TfConfig(16 * GB, SsdEff, src, computeFactor = gpuFactor), models, inputBytes,
        (gpuExtraPerModelGb * n * GB).toLong, computePerModel, inputResident = false))
      Seq(cpu(InputSource.Memory), cpu(Csv), cpu(dbSource),
        gpu(InputSource.Memory), gpu(Csv), gpu(dbSource))
    }
    val matmulRows = Seq(3, 6, 12).map { n =>
      val b = word2vec(n)
      val nets = serve(b, b.modelIds, SsdEff, 15 * GB, dedup = true, optimized = true,
        W2v.computePerModel, W2v.inputBytes, W2v.pinnedPerModel)
      Seq("matmul fp64", n.toString, secs(nets.totalSeconds)) ++
        tfRow(n, modelGb = 4.0, computePerModel = 3.0, gpuFactor = 1.55,
          inputBytes = W2v.inputBytes, cpuInterGb = 2.0, gpuExtraPerModelGb = 0.0,
          dbSource = Db400)
    }
    val lookupRows = Seq(3, 6, 12).map { n =>
      val b = word2vec(n)
      // Single precision halves page sizes; rebuild the store at 32 MB pages.
      // The only run with that store and sharing-aware LRU sets, so it builds
      // its serving config here rather than making `serve` branch on it.
      val store = new PageStore(PageBytes / 2)
      store.load(b.packing, b.problem)
      val rates = b.modelIds.map(_ -> 1.0 / n).toMap
      val policy = repro.bufferpool.LocalitySetPolicy(innerMru = false, sharingAware = true, rates)
      val cfg = repro.serving.ServingConfig(SsdEff, 15 * GB, policy,
        computeSecondsPerModel = 38.0, inputBytes = 8L << 20, probeRounds = 8,
        pinnedBytesPerModel = (2.5 * GB).toLong)
      val nets = new repro.serving.InferenceEngine(store, cfg, b.tensorToModel)
        .serveAll(b.modelIds, b.modelTensors)
      Seq("lookup fp32", n.toString, secs(nets.totalSeconds)) ++
        tfRow(n, modelGb = 2.0, computePerModel = 19.0, gpuFactor = 1.0,
          inputBytes = 8L << 20, cpuInterGb = 3.0 * n, gpuExtraPerModelGb = 4.0,
          dbSource = DbBlob)
    }
    Table("Table 3", "Word2Vec serving: netsDB vs TensorFlow (seconds)",
      Seq("variant", "numModels", "netsDB", "TF-mem (CPU)", "TF-file (CPU)", "TF-DB (CPU)",
        "TF-mem (GPU)", "TF-file (GPU)", "TF-DB (GPU)"),
      matmulRows ++ lookupRows)
  }

  // ----------------------------------------------------------------------
  // Table 4: text classification page counts and accuracy around dedup.
  // ----------------------------------------------------------------------
  def table4(): Table = {
    val b = textClass
    val rows = b.models.zip(b.stats).map { case (m, st) =>
      val tid = m.primary.id
      Seq(s"Model-${m.id + 1}",
        b.store.privatePages(tid).size.toString,
        b.store.sharedPages(tid).size.toString,
        pct(st.accuracyBefore), pct(st.accuracyAfter))
    }
    Table("Table 4", "Text classification: pages and accuracy before/after dedup",
      Seq("model", "private pages", "num shared pages", "auc before dedup", "auc after dedup"),
      rows)
  }

  // ----------------------------------------------------------------------
  // Table 5: page reference-count distribution after dedup.
  // ----------------------------------------------------------------------
  def table5(): Table = {
    val b = textClass
    val tensorOf = b.models.map(m => m.id -> m.primary.id).toMap
    def pagesOfModelWithRef(m: Int, k: Int): Int =
      b.store.pagesOf(tensorOf(m)).count(id => b.store.refCount(id) == k)
    val header = Seq("") ++ b.models.map(m => s"Model-${m.id + 1}") ++ Seq("Total")
    val sharedRows = (5 to 2 by -1).map { k =>
      val per = b.models.map(m => pagesOfModelWithRef(m.id, k).toString)
      val total = b.store.allPages.count(p => b.store.refCount(p.id) == k)
      Seq(s"pages shared by $k models") ++ per ++ Seq(total.toString)
    }
    val privRow = {
      val per = b.models.map(m => b.store.privatePages(tensorOf(m.id)).size)
      Seq("private pages") ++ per.map(_.toString) ++ Seq(per.sum.toString)
    }
    Table("Table 5", "Page reference count distribution after deduplication",
      header, sharedRows :+ privRow)
  }

  // ----------------------------------------------------------------------
  // Table 6: text classification latency across storage configurations.
  // ----------------------------------------------------------------------
  def table6(): Table = poolSweep("Table 6",
    "Text classification latency across storage configurations (seconds)", textClass,
    Seq(SsdEff, HddEff), Seq(15, 10, 8), Tc.computePerModel, Tc.inputBytes, Tc.pinnedPerModel)

  // ----------------------------------------------------------------------
  // Table 7: FFNN transfer learning latency.
  // ----------------------------------------------------------------------
  def table7(): Table = poolSweep("Table 7", "FFNN transfer learning latency (seconds)", ffnn,
    Seq(SsdEff, HddSeq), Seq(9, 13), Ffnn.computePerModel, Ffnn.inputBytes, Ffnn.pinnedPerModel,
    Ffnn.probeRounds)

  // ----------------------------------------------------------------------
  // Table 8: FFNN serving, netsDB vs TensorFlow.
  // ----------------------------------------------------------------------
  def table8(): Table = {
    val b = ffnn
    val overhead = 1.25
    val rows = Seq(2, 3).map { n =>
      val ids = b.modelIds.take(n)
      val nets = serve(b, ids, SsdEff, 13 * GB, dedup = true, optimized = true,
        Ffnn.computePerModel, Ffnn.inputBytes, Ffnn.pinnedPerModel, Ffnn.probeRounds)
      val models = Seq.fill(n)((5.0 * overhead * GB).toLong)
      val input = Ffnn.inputBytes
      // CSV parsing holds ~2 extra input copies, JDBC ~1 (observed failure
      // boundaries in the paper).
      def cpu(src: InputSource, extraInputCopies: Int) = TfBaseline.cell(TfBaseline.serve(
        TfConfig(30 * GB, SsdEff, src), models, input,
        extraInputCopies.toLong * input, 21.5))
      def gpu(src: InputSource) = TfBaseline.cell(TfBaseline.serve(
        TfConfig(16 * GB, SsdEff, src, computeFactor = 0.4), models, input, 0L, 21.5,
        inputResident = false))
      Seq(n.toString, secs(nets.totalSeconds),
        cpu(InputSource.Memory, 0), cpu(Csv, 2), cpu(DbBlob, 1),
        gpu(InputSource.Memory), gpu(Csv), gpu(DbBlob))
    }
    Table("Table 8", "FFNN serving: netsDB vs TensorFlow (seconds)",
      Seq("numModels", "netsDB", "TF-mem (CPU)", "TF-file (CPU)", "TF-DB (CPU)",
        "TF-mem (GPU)", "TF-file (GPU)", "TF-DB (GPU)"),
      rows)
  }

  // ----------------------------------------------------------------------
  // Tables 9/10: duplicate-detection approaches compared.
  // ----------------------------------------------------------------------
  private final case class DetectorRun(name: String, idx: DedupIndex,
                                       stats: Vector[ModelDedupStats], total: Int)

  private lazy val detectorRuns: Vector[DetectorRun] = {
    val (fam, models) = ModelGen.textClassFamily()
    val eval = new AccuracyEval(fam)
    val labels = models.map(m =>
      m.id -> eval.labels(m, ModelGen.textClassVariants(m.id).labelNoise)).toMap
    val dim = fam.shape.blockDim
    val total = models.map(_.primary.numBlocks).sum
    def run(name: String, idx: DedupIndex, gated: Boolean): DetectorRun = {
      val stats = models.map { m =>
        val oracle = if (gated) Some(new EvalAdapter(eval, m, labels(m.id))) else None
        idx.addModel(m.tensors, oracle)
      }
      DetectorRun(name, idx, stats, total)
    }
    Vector(
      run("Mistique Exact Dedup", Detectors.mistiqueExact(), gated = false),
      run("Mistique Approximate Dedup", Detectors.mistiqueApprox(dim), gated = true),
      run("Enhanced Pairwise", Detectors.enhancedPairwise(), gated = true),
      run("Proposed (w/o finetune)", Detectors.proposed(dim), gated = true))
  }

  def table9(): Table = {
    val rows = detectorRuns.map { r =>
      Seq(r.name, r.total.toString, r.idx.numDistinct.toString,
        f"${r.idx.avgProbeSeconds}%.6f")
    }
    Table("Table 9", "Duplicate detection: compression and index query time",
      Seq("approach", "Blocks w/o dedup", "Blocks w/ dedup", "Query Time (per block, s)"),
      rows)
  }

  def table10(): Table = {
    val rows = detectorRuns.map { r =>
      Seq(r.name) ++ r.stats.map(s => pct(math.max(0.0, s.accuracyDrop)))
    }
    Table("Table 10", "Duplicate detection: model accuracy drop",
      Seq("approach") ++ detectorRuns.head.stats.map(s => s"Model-${s.modelId + 1}"),
      rows)
  }

  // ----------------------------------------------------------------------
  // Tables 11/12: page packing algorithms (page counts and latency).
  // ----------------------------------------------------------------------
  private lazy val packingScenarios: Seq[(String, Problem)] = Seq(
    "word2vec (100x10000, 64MB)" -> word2vec(6).problem,
    "text classification (100x10000, 64MB)" -> textClass.problem,
    "text classification (300x300, 64MB)" -> textClassFine.problem,
    "text classification (300x300, 32MB)" ->
      textClassFine.problem.copy(l = 44))

  private val packers: Seq[(String, Problem => Packing)] = Seq(
    "Baseline" -> PagePacking.baseline,
    "Two-Stage" -> PagePacking.twoStage,
    "Greedy-1" -> PagePacking.greedy1,
    "Greedy-2" -> PagePacking.greedy2)

  private lazy val packingResults: Seq[(String, Seq[(String, Int, Double)])] =
    packingScenarios.map { case (name, prob) =>
      name -> packers.map { case (alg, f) =>
        val t0 = System.nanoTime()
        val pk = f(prob)
        val dt = (System.nanoTime() - t0) / 1e9
        (alg, pk.numDistinctPages, dt)
      }
    }

  def table11(): Table = Table("Table 11",
    "Required number of pages by packing algorithm",
    Seq("Scenario (block size, page size)") ++ packers.map(_._1),
    packingResults.map { case (name, rs) => Seq(name) ++ rs.map(_._2.toString) })

  def table12(): Table = Table("Table 12",
    "Page packing latency by algorithm (seconds)",
    Seq("Scenario (block size, page size)") ++ packers.map(_._1),
    packingResults.map { case (name, rs) => Seq(name) ++ rs.map(r => f"${r._3}%.3f") })

  // ----------------------------------------------------------------------
  // Table 13: online packing — page reuse and reorganization per step.
  // ----------------------------------------------------------------------
  def table13(): Table = {
    val p = textClass.problem
    val r = PagePacking.online(p, p.tensors.keys.toVector.sorted)
    val rows = r.steps.zipWithIndex.map { case (s, i) =>
      Seq((i + 1).toString, s"Model-${s.tensorId + 1}",
        s.reused.toString, s.discarded.toString, s.created.toString)
    }
    Table("Table 13", "Online page packing: reuse and reorganization",
      Seq("Step", "New model to pack", "pages reused", "pages discarded", "pages created"),
      rows)
  }

  // ----------------------------------------------------------------------
  // Table 14: interplay with pruning and quantization.
  // ----------------------------------------------------------------------
  def table14(): Table = {
    val b = textClass
    val eval = b.eval.get
    val plainPages = b.plainStore.numPages.toDouble
    def origLookup(m: Model) = { val d = ModelGen.blockData(Seq(m)); (r: repro.core.BlockRef) => d(r) }
    val origAcc = b.models.map(m => m.id -> eval.accuracy(m, b.labels(m.id), origLookup(m))).toMap

    /** Accuracy drop vs the ORIGINAL model for a transformed weight set. */
    def dropOf(transformed: Seq[Model]): Double =
      transformed.map { m =>
        origAcc(m.id) - eval.accuracy(m, b.labels(m.id), origLookup(m))
      }.max

    /** Dedup a transformed family; returns (pagesRatio, maxDrop) where the
      * drop is measured against the transformed (compressed) models — the
      * paper reports each stage's own drop, gated at 3.5 %, not the
      * accumulated drop versus the uncompressed original.
      */
    def dedupOf(transformed: Vector[Model]): (Double, Double) = {
      val dim = transformed.head.primary.blocks.head.data.length
      val idx = Detectors.proposed(dim)
      val stats = transformed.map { m =>
        idx.addModel(m.tensors, Some(new EvalAdapter(eval, m, b.labels(m.id))))
      }
      val pages = PagePacking.twoStage(Problem.fromDedup(idx, BlocksPerPage)).numDistinctPages
      (pages / plainPages, stats.map(_.accuracyDrop).max)
    }

    val pruned = b.models.map(Compression.prune(_, 0.8))
    val quantized = b.models.map(Compression.quantize(_, 8))
    val pruneRatio = pruned.map(Compression.prunedSizeRatio).sum / pruned.size
    val quantRatio = Compression.quantizedSizeRatio(8)

    val dedupRatio = b.store.numPages / plainPages
    val dedupDrop = b.stats.map(_.accuracyDrop).max

    val (dpPages, dpDrop) = dedupOf(pruned)
    val (dqPages, dqDrop) = dedupOf(quantized)

    val header = Seq("", "pruning", "quantization", "dedup", "dedup+pruning", "dedup+quant")
    val aucRow = Seq("auc drop", pct(dropOf(pruned)), pct(dropOf(quantized)),
      pct(dedupDrop), pct(dpDrop), pct(dqDrop))
    val ratioRow = Seq("compression ratio", pct(pruneRatio), pct(quantRatio),
      pct(dedupRatio), pct(dpPages * pruneRatio), pct(dqPages * quantRatio))
    Table("Table 14", "Compression techniques: ratio (after/before) and max accuracy drop",
      header, Seq(aucRow, ratioRow))
  }

  /** Table N's harness at index N - 1; listing them builds nothing. */
  val harnesses: Vector[() => Table] = Vector(table1 _, table2 _, table3 _, table4 _, table5 _,
    table6 _, table7 _, table8 _, table9 _, table10 _, table11 _, table12 _, table13 _, table14 _)

  /** All tables in order, as `repro.jobs.AllTablesJob` prints them. */
  def all(): Seq[Table] = harnesses.map(_())
}
