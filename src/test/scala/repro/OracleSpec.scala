package repro

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** The DuckDB oracle itself, over small inline relations: it must accept an
  * equal grouped aggregate and reject a wrong row or an unaliased column.
  */
class OracleSpec extends SparkSpec {

  private lazy val sales = spark.createDataFrame(Seq(
    ("a", 1.5), ("b", 2.0), ("a", 3.25), ("c", 4.0), ("a", 0.5))).toDF("k", "v")

  private val GroupedSql =
    "SELECT k, COUNT(*) AS cnt, round(SUM(CAST(v AS DOUBLE)), 4) AS total FROM sales GROUP BY k"

  private def grouped(df: DataFrame) =
    df.groupBy("k").agg(count(lit(1)) as "cnt", round(sum("v"), 4) as "total")

  test("accepts a grouped COUNT(*) aggregate with aliased columns") {
    Oracle.assertEquivalent(grouped(sales), GroupedSql, "sales" -> sales)
  }

  test("rejects a row that differs from DuckDB's") {
    val df = grouped(sales.filter(col("k") =!= "c"))
    val e = intercept[IllegalArgumentException](Oracle.assertEquivalent(df, GroupedSql, "sales" -> sales))
    assert(e.getMessage.contains("result mismatch"))
  }

  test("rejects an unaliased column") {
    val df = sales.groupBy("k").agg(count(lit(1)))
    val e = intercept[IllegalArgumentException](
      Oracle.assertEquivalent(df, "SELECT k, COUNT(*) FROM sales GROUP BY k", "sales" -> sales))
    assert(e.getMessage.contains("column mismatch"))
  }
}
