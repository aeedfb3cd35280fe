package repro.perfbench

import java.io.File

/** `Main --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]`
  *
  * Runs one workload and prints, as the last stdout line, one JSON object:
  * `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
  * metrics are the end-to-end ones; with `--trace 1` the per-layer ones, and
  * the spans go to `<out>/trace-<workload>-<seed>.json`. A failed output
  * check sets `correct` to false and is listed on stderr.
  */
object Main {

  final case class Metric(name: String, value: Double, unit: String)

  def percentile(xs: Seq[Long], q: Double): Double = {
    val s = xs.sorted
    s(math.max(0, math.ceil(q * s.size).toInt - 1)).toDouble
  }

  def median(xs: Seq[Long]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2).toDouble else (s(s.size / 2 - 1) + s(s.size / 2)) / 2.0
  }

  /** `serveAll` latency at quantile `q`: each sweep configuration's own
    * quantile, averaged over the configurations. A quantile of all calls
    * pooled would sit in the gap between fast and slow configurations, where
    * noise in either moves it far.
    */
  def serveMs(b: Bench, q: Double): Double =
    b.serveCalls.values.map(c => percentile(c.map(_._1).toSeq, q)).sum / b.serveCalls.size / 1e6

  /** Page accesses per second of a sweep made of each configuration's median
    * call.
    */
  def serveAccessesPerS(b: Bench): Double = {
    def medianOf(f: ((Long, Long)) => Long) = b.serveCalls.values.map(c => percentile(c.map(f).toSeq, 0.5)).sum
    medianOf(_._2) / (medianOf(_._1) / 1e9)
  }

  def endToEnd(b: Bench): Seq[Metric] = Seq(
    Metric("setup_s", median(b.setupNanos.toSeq) / 1e9, "s"),
    Metric("ingest_s", median(b.ingestNanos.toSeq) / 1e9, "s"),
    Metric("op_ms.p50", percentile(b.opNanos.toSeq, 0.5) / 1e6, "ms"),
    Metric("op_ms.p90", percentile(b.opNanos.toSeq, 0.9) / 1e6, "ms"),
    Metric("serve_ms.p50", serveMs(b, 0.5), "ms"),
    Metric("serve_accesses_per_s", serveAccessesPerS(b), "1/s"),
    Metric("storage_ratio", b.exact("storage_ratio"), "ratio"),
    Metric("modelled_serve_s", b.exact("modelled_serve_s"), "s"),
    Metric("retained_heap_mb", b.retainedHeapMb, "MB"))

  def perLayer(b: Bench): Seq[Metric] = {
    val l = b.layers
    val x = b.exact
    val calls = x("model.oracle_calls")
    val counts = Seq("model.oracle_calls", "core.probes", "core.blocks", "core.merged", "core.gate_stops",
      "core.distinct_blocks", "core.groups", "core.pages", "core.pages_reused", "core.pages_discarded",
      "core.pages_created", "storage.pages", "storage.shared_pages", "serving.calls",
      "serving.page_accesses", "bufferpool.hits", "bufferpool.misses")
    def m(name: String, unit: String) = Metric(name, l.getOrElse(name, x.getOrElse(name, 0.0)), unit)
    Seq(
      m("model.gen_s", "s"), m("model.labels_s", "s"), m("model.oracle_s", "s"),
      Metric("model.oracle_ms_per_call", if (calls == 0) 0.0 else l("model.oracle_s") * 1e3 / calls, "ms"),
      m("core.addmodel_s", "s"), m("core.addmodel_self_s", "s"),
      Metric("core.probe_s", b.probeSeconds, "s"),
      m("core.merge_ratio", "ratio"), m("core.index_leak_ratio", "ratio"),
      m("core.accuracy_drop_max_pct", "pct_pt"),
      m("core.remove_s", "s"), m("core.problem_s", "s"), m("core.pack_s", "s"), m("core.page_fill", "ratio"),
      m("storage.load_s", "s"), m("storage.remove_s", "s"), m("storage.read_amplification", "ratio"),
      m("serving.serve_s", "s"),
      Metric("serving.serve_ms.p90", serveMs(b, 0.9), "ms"),
      Metric("serving.us_per_access", l("serving.serve_s") * 1e6 / x("serving.page_accesses"), "us"),
      m("bufferpool.hit_ratio", "ratio"), m("device.modelled_io_s", "s"),
      Metric("trace.ingest_s", median(b.ingestNanos.toSeq) / 1e9, "s"),
      Metric("trace.serve_ms.p50", serveMs(b, 0.5), "ms"),
      Metric("trace.spans", b.tr.numSpans, "count"),
    ) ++ counts.map(c => m(c, "count"))
  }

  private def num(v: Double): String = {
    require(!v.isNaN && !v.isInfinite, s"metric value $v")
    if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString else v.toString
  }

  def json(b: Bench, metrics: Seq[Metric]): String =
    metrics.map(m => s""""${m.name}": {"value": ${num(m.value)}, "unit": "${m.unit}"}""")
      .mkString(s"""{"correct": ${b.failures.isEmpty}, "attempted": ${b.attempted}, """ +
        s""""failed": ${b.failed}, "metrics": {""", ", ", "}}")

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val workload = opts.getOrElse("workload", "")
    require(Bench.Workloads.contains(workload), s"--workload must be one of ${Bench.Workloads.mkString(", ")}")
    val bench = new Bench(workload, opts("seed").toLong, opts("seconds").toDouble,
      new Tracer(opts.getOrElse("trace", "0") == "1"))
    bench.run()

    val metrics = if (bench.tr.enabled) perLayer(bench) else endToEnd(bench)
    System.err.println(s"$workload seed=${bench.seed}: ${bench.setupNanos.size} set-ups, " +
      s"${bench.ingestNanos.size} ingests, ${bench.opNanos.size} ops, ${bench.serveCalls.values.map(_.size).sum} serve calls")
    metrics.foreach(m => System.err.println(f"  ${m.name}%-28s ${num(m.value)}%s ${m.unit}"))
    bench.failures.foreach(f => System.err.println(s"  FAILED: $f"))
    if (bench.tr.enabled)
      bench.tr.write(new File(opts.getOrElse("out", "."), s"trace-$workload-${bench.seed}.json"))
    println(json(bench, metrics))
  }
}
