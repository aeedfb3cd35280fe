package repro.bench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import org.scalatest.funsuite.AnyFunSuite
import repro.experiments.Tables
import repro.experiments.Tables.Table

/** Table-identity gate: every table `AllTablesJob` prints must stay
  * byte-identical to the golden rendering, apart from the wall-clock columns
  * (Table 9's query seconds per block and Table 12's packing seconds), which
  * are masked before rendering. An exact speed-up of the pipeline must pass
  * this suite unchanged; a change that moves table output must regenerate
  * the golden file and refresh EXPERIMENTS.md.
  *
  * On a mismatch the actual rendering is written to
  * `target/tables-actual.md` (relative to the test JVM's working directory)
  * for diffing against the golden file.
  */
class TableIdentityBench extends AnyFunSuite {

  private val Golden = "/tables-golden.md"
  private val Mask = "<time>"

  private def masked(t: Table): Table = {
    val timed: Int => Boolean = t.id match {
      case "Table 9" => _ == 3 // query seconds per block
      case "Table 12" => _ > 0 // packing seconds per algorithm
      case _ => _ => false
    }
    t.copy(rows = t.rows.map(_.zipWithIndex.map { case (c, i) => if (timed(i)) Mask else c }))
  }

  /** The same text `AllTablesJob` prints, with timing cells masked. */
  private def rendered: String = Tables.all().map(t => masked(t).render + "\n\n").mkString

  test("AllTablesJob output is byte-identical to the golden file apart from timing columns") {
    val actual = rendered
    val stream = getClass.getResourceAsStream(Golden)
    val golden = Option(stream).map { s =>
      try new String(s.readAllBytes(), StandardCharsets.UTF_8) finally s.close()
    }
    if (!golden.contains(actual)) {
      val out = Paths.get("target", "tables-actual.md")
      Files.createDirectories(out.getParent)
      Files.write(out, actual.getBytes(StandardCharsets.UTF_8))
      fail(s"table output differs from $Golden (actual written to ${out.toAbsolutePath})")
    }
  }
}
