package repro.device

import org.scalatest.funsuite.AnyFunSuite
import repro.experiments.Scenarios.{HddEff, SsdEff}

class StorageDeviceSpec extends AnyFunSuite {

  test("read cost is seek plus bandwidth-limited transfer") {
    val d = StorageDevice("X", seekSeconds = 0.01, readMBps = 100, writeMBps = 50)
    assert(math.abs(d.readSeconds(100L * 1000 * 1000) - 1.01) < 1e-9)
    assert(math.abs(d.writeSeconds(50L * 1000 * 1000) - 1.01) < 1e-9)
  }

  test("HDD page reads are far slower than SSD") {
    val page = 64L << 20
    assert(HddEff.readSeconds(page) > 3 * SsdEff.readSeconds(page))
  }

  test("RAM reads are far faster than SSD") {
    val page = 64L << 20
    assert(StorageDevice.Ram.readSeconds(page) < SsdEff.readSeconds(page) / 5)
  }

  test("zero bytes costs only the seek") {
    assert(HddEff.readSeconds(0) == HddEff.seekSeconds)
  }

  test("invalid device parameters are rejected") {
    intercept[IllegalArgumentException](StorageDevice("bad", -1, 100, 100))
    intercept[IllegalArgumentException](StorageDevice("bad", 0, 0, 100))
  }
}
