package repro.serving

import org.scalatest.funsuite.AnyFunSuite
import repro.device.InputSource
import repro.experiments.Scenarios.SsdEff

class TfBaselineSpec extends AnyFunSuite {

  private val GB = 1L << 30
  private def cfg(memGb: Long, source: InputSource = InputSource.Memory) =
    TfConfig(memGb * GB, SsdEff, source)

  private val Database = InputSource("TF-DB", 2.5)
  private val CsvFile = InputSource("TF-file", 6.0)

  test("fails when the working set exceeds memory (paper's Failed cells)") {
    val r = TfBaseline.serve(cfg(30), modelBytes = Seq.fill(6)(4 * GB),
      inputBytes = 1 * GB, intermediateBytes = 6 * GB, computeSecondsPerModel = 3.0)
    assert(r == Left("Failed"))
  }

  test("succeeds when the working set fits") {
    val r = TfBaseline.serve(cfg(30), modelBytes = Seq.fill(3)(4 * GB),
      inputBytes = 1 * GB, intermediateBytes = 3 * GB, computeSecondsPerModel = 3.0)
    assert(r.isRight)
    assert(r.toOption.get > 9.0) // at least the compute time
  }

  test("latency grows with the number of models") {
    def run(n: Int) = TfBaseline.serve(cfg(100), Seq.fill(n)(GB), GB, GB, 2.0).toOption.get
    assert(run(3) > run(2))
  }

  test("input source ordering: memory < database < CSV file for equal input") {
    def run(src: InputSource) =
      TfBaseline.serve(cfg(100, src), Seq(GB), 4 * GB, GB, 1.0).toOption.get
    val mem = run(InputSource.Memory)
    val db = run(Database)
    val file = run(CsvFile)
    assert(mem < db && db < file, s"mem=$mem db=$db file=$file")
  }

  test("custom source allows scenario-specific overheads (400-BLOB table)") {
    val slowDb = InputSource("TF-DB", 8.0)
    def run(src: InputSource) =
      TfBaseline.serve(cfg(100, src), Seq(GB), 4 * GB, GB, 1.0).toOption.get
    assert(run(slowDb) > run(CsvFile))
  }

  test("computeFactor scales compute (GPU FP64 penalty / FFNN speedup)") {
    val slowGpu = cfg(100).copy(computeFactor = 1.5)
    val fast = TfBaseline.serve(cfg(100), Seq(GB), GB, GB, 10.0).toOption.get
    val slow = TfBaseline.serve(slowGpu, Seq(GB), GB, GB, 10.0).toOption.get
    assert(slow > fast)
  }

  test("cell formats Failed and seconds") {
    assert(TfBaseline.cell(Left("Failed")) == "Failed")
    assert(TfBaseline.cell(Right(12.4)) == "12")
  }
}
