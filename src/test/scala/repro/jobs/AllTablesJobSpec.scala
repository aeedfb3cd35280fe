package repro.jobs

import org.scalatest.funsuite.AnyFunSuite
import repro.experiments.Tables

class AllTablesJobSpec extends AnyFunSuite {

  test("table arguments select harnesses without building them; others name the valid range") {
    assert(Tables.harnesses.size == 14)
    assert(AllTablesJob.selected(Nil) == Tables.harnesses)
    assert(AllTablesJob.selected(Seq("14", "1")) == Seq(Tables.harnesses(13), Tables.harnesses(0)))
    for (bad <- Seq("0", "15", "x")) {
      val e = intercept[IllegalArgumentException](AllTablesJob.selected(Seq(bad)))
      assert(e.getMessage.contains(s"unknown table '$bad'") && e.getMessage.contains("from 1 to 14"))
    }
  }
}
