package repro.device

/** Analytic storage-device cost model (DESIGN.md §2): a page transfer costs
  * one seek plus bytes/bandwidth. The tables' calibrated SSD/HDD presets are
  * `repro.experiments.Scenarios.SsdEff`, `HddEff` and `HddSeq`.
  */
final case class StorageDevice(name: String, seekSeconds: Double,
                               readMBps: Double, writeMBps: Double) {
  require(seekSeconds >= 0 && readMBps > 0 && writeMBps > 0)

  def readSeconds(bytes: Long): Double = seekSeconds + bytes / (readMBps * 1e6)
  def writeSeconds(bytes: Long): Double = seekSeconds + bytes / (writeMBps * 1e6)
}

object StorageDevice {
  /** Main-memory "device" used by the TensorFlow baseline's TF-mem source. */
  val Ram: StorageDevice = StorageDevice("RAM", seekSeconds = 0.0, readMBps = 10000, writeMBps = 10000)
}

/** Where the TensorFlow baseline loads its input features from (Table 3/8):
  * local memory, a local CSV file, or a PostgreSQL BLOB column. The factor
  * multiplies raw device read time — CSV parsing and JDBC/BLOB
  * deserialization cost several times the raw byte transfer. The tables'
  * calibrated file and database sources are defined next to Tables 3 and 8.
  */
final case class InputSource(name: String, overheadFactor: Double)
object InputSource {
  /** Memory is read at RAM speed, whatever the factor. */
  val Memory: InputSource = InputSource("TF-mem", 1.0)
}
