package repro.stream

import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec}
import repro.core.Gcep

/** The GCEP count pattern behind Q8a ([[repro.core.Gcep.countPattern]])
  * on a hand-built brake stream.
  */
class CepSpec extends SparkSpec {

  private lazy val brakes = {
    import spark.implicits._
    // Segment 7: a cluster of 4 emergencies within 100 s; segment 8: two
    // emergencies 10 minutes apart (never >= 3 in one window).
    val cluster = Seq(0L, 20000L, 50000L, 90000L).map(t => (7L, t, 1.5))
    val sparse = Seq((8L, 0L, 1.5), (8L, 600000L, 1.5))
    val normal = (0 until 50).map(i => (7L, i * 7000L, 5.0))
    (cluster ++ sparse ++ normal).toDF("segment", "ts_ms", "brake_bar").cache()
  }

  test("countPattern fires on the planted cluster only") {
    val out = Gcep.countPattern(brakes, Seq("segment"), "ts_ms",
      col("brake_bar") < 2.0, 600000L, 120000L, 3L)
    val segs = out.select("segment").distinct().collect().map(_.getLong(0)).toSet
    assert(segs == Set(7L))
  }

  test("countPattern respects the threshold k") {
    val out = Gcep.countPattern(brakes, Seq("segment"), "ts_ms",
      col("brake_bar") < 2.0, 600000L, 120000L, 5L)
    assert(out.count() == 0)
  }

  test("countPattern carries first/last event times") {
    val r = Gcep.countPattern(brakes, Seq("segment"), "ts_ms",
        col("brake_bar") < 2.0, 600000L, 120000L, 4L)
      .orderBy("win_start").limit(1).head()
    assert(r.getAs[Long]("first_ms") == 0L)
    assert(r.getAs[Long]("last_ms") == 90000L)
    assert(r.getAs[Long]("n_events") == 4L)
  }

  test("countPattern matches the DuckDB oracle") {
    val out = Gcep.countPattern(brakes, Seq("segment"), "ts_ms",
      col("brake_bar") < 2.0, 600000L, 120000L, 3L)
    Oracle.assertEquivalent(out,
      """WITH t AS (SELECT CAST(segment AS BIGINT) AS segment,
        |                  CAST(ts_ms AS BIGINT) AS ts_ms,
        |                  CAST(brake_bar AS DOUBLE) AS brake_bar FROM brakes),
        |em AS (SELECT * FROM t WHERE brake_bar < 2.0),
        |rep AS (
        |  SELECT segment, ts_ms, (ts_ms // 120000 - off) * 120000 AS win_start
        |  FROM em CROSS JOIN (SELECT unnest(range(0, 5)) AS off)
        |  WHERE ts_ms >= (ts_ms // 120000 - off) * 120000
        |    AND ts_ms <  (ts_ms // 120000 - off) * 120000 + 600000
        |)
        |SELECT win_start, segment, COUNT(*) AS n_events,
        |       MIN(ts_ms) AS first_ms, MAX(ts_ms) AS last_ms
        |FROM rep GROUP BY 1, 2 HAVING COUNT(*) >= 3""".stripMargin,
      "brakes" -> brakes)
  }
}
