package repro.stream

import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec}
import repro.core.Baselines

class WindowsSpec extends SparkSpec {

  private lazy val ticks = {
    import spark.implicits._
    // Two keys, one event per second for 300 s, value = seq.
    (0 until 300).flatMap(i => Seq(("a", i * 1000L, i.toDouble), ("b", i * 1000L, i * 2.0)))
      .toDF("k", "ts_ms", "v").cache()
  }

  test("tumbleStart aligns to the epoch") {
    import spark.implicits._
    val r = Seq(0L, 59999L, 60000L, 119999L, 123456L).toDF("ts")
      .select(Windows.tumbleStart(col("ts"), 60000L).as("ws"))
      .collect().map(_.getLong(0)).toSeq
    assert(r == Seq(0L, 0L, 60000L, 60000L, 120000L))
  }

  test("tumbling window counts: 60s windows over 300s of 1Hz data") {
    val out = Windows.tumbling(ticks, "ts_ms", 60000L, Seq("k"),
      Seq(count(lit(1)).as("n")))
    val rows = out.collect().map(r => (r.getLong(0), r.getString(1), r.getLong(2)))
    assert(rows.length == 10, "5 windows x 2 keys")
    assert(rows.forall(_._3 == 60L))
  }

  test("tumbling window aggregates match the DuckDB oracle") {
    val out = Windows.tumbling(ticks, "ts_ms", 60000L, Seq("k"),
      Seq(count(lit(1)).as("n"), avg("v").as("avg_v"), max("v").as("max_v")))
    Oracle.assertEquivalent(out,
      """SELECT (CAST(ts_ms AS BIGINT) // 60000) * 60000 AS win_start, k,
        |       COUNT(*) AS n, AVG(CAST(v AS DOUBLE)) AS avg_v,
        |       MAX(CAST(v AS DOUBLE)) AS max_v
        |FROM ticks GROUP BY 1, 2""".stripMargin,
      "ticks" -> ticks)
  }

  test("sliding windows replicate each event size/slide times") {
    val out = Windows.sliding(ticks, "ts_ms", 60000L, 20000L, Seq("k"),
      Seq(count(lit(1)).as("n")))
    // 300 s of data, windows every 20 s: events near the start belong to
    // fewer complete windows, but total replicated rows = sum of counts.
    val total = out.agg(sum("n")).head().getLong(0)
    // Each event is in exactly 3 windows (60/20); like Spark's own
    // window(), windows whose start precedes the epoch are included.
    assert(total == 2L * 300 * 3)
  }

  test("sliding windows match the DuckDB oracle") {
    val out = Windows.sliding(ticks, "ts_ms", 60000L, 20000L, Seq("k"),
      Seq(count(lit(1)).as("n"), min("v").as("min_v")))
    Oracle.assertEquivalent(out,
      """WITH t AS (SELECT k, CAST(ts_ms AS BIGINT) AS ts_ms, CAST(v AS DOUBLE) AS v FROM ticks),
        |rep AS (
        |  SELECT k, ts_ms, v, (ts_ms // 20000 - off) * 20000 AS win_start
        |  FROM t CROSS JOIN (SELECT unnest(range(0, 3)) AS off)
        |  WHERE ts_ms >= (ts_ms // 20000 - off) * 20000
        |    AND ts_ms <  (ts_ms // 20000 - off) * 20000 + 60000
        |)
        |SELECT win_start, k, COUNT(*) AS n, MIN(v) AS min_v
        |FROM rep GROUP BY 1, 2""".stripMargin,
      "ticks" -> ticks)
  }

  test("sliding requires size to be a multiple of slide") {
    intercept[IllegalArgumentException](
      Windows.sliding(ticks, "ts_ms", 60000L, 25000L, Seq("k"), Seq(count(lit(1)).as("n"))))
  }

  test("islands: single run per key") {
    import spark.implicits._
    val df = Seq(("a", 0L, 1), ("a", 1000L, 1), ("a", 2000L, 0), ("a", 3000L, 1))
      .toDF("k", "ts_ms", "flag")
    val out = Baselines.islands(df, Seq("k"), "ts_ms", col("flag") === 1)
      .select("ts_ms", "island_id").collect()
      .map(r => (r.getLong(0), r.getLong(1))).sortBy(_._1)
    assert(out.toSeq == Seq((0L, 1L), (1000L, 1L), (3000L, 3L)))
  }

  test("islands: keys are independent") {
    import spark.implicits._
    val df = Seq(("a", 0L, 1), ("b", 0L, 0), ("b", 1000L, 1)).toDF("k", "ts_ms", "flag")
    val out = Baselines.islands(df, Seq("k"), "ts_ms", col("flag") === 1)
    assert(out.count() == 2)
    val byKey = out.collect().map(r => (r.getString(0), r.getLong(3))).toMap
    assert(byKey("a") == 1L && byKey("b") == 2L)
  }

  test("islands: no predicate rows yields empty output") {
    import spark.implicits._
    val df = Seq(("a", 0L, 0), ("a", 1000L, 0)).toDF("k", "ts_ms", "flag")
    assert(Baselines.islands(df, Seq("k"), "ts_ms", col("flag") === 1).count() == 0)
  }
}
