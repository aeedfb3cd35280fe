package repro.jobs

import repro.experiments.Tables

/** spark-submit entrypoint for the evaluation tables:
  * `spark-submit --class repro.jobs.AllTablesJob repro.jar [N ...]`.
  * With no arguments it prints every table in order; with table numbers
  * (1 to 14) it prints only those, in the order given. The storage-engine
  * simulation runs on the driver; the Spark-side TRA operators and signature
  * path are exercised by the test suites (see DESIGN.md §4).
  */
object AllTablesJob {

  /** The harnesses to run for `args`; none is built here. */
  def selected(args: Seq[String]): Seq[() => Tables.Table] =
    if (args.isEmpty) Tables.harnesses
    else args.map { a =>
      val n = a.toIntOption.getOrElse(0)
      require(n >= 1 && n <= Tables.harnesses.size,
        s"unknown table '$a': expected a table number from 1 to ${Tables.harnesses.size}")
      Tables.harnesses(n - 1)
    }

  def main(args: Array[String]): Unit =
    selected(args.toSeq).foreach(t => println(t().render + "\n"))
}
