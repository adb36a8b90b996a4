package repro.core

import org.apache.spark.sql.{Column, Dataset}
import org.apache.spark.sql.catalyst.plans.logical.{Filter, Project}
import org.apache.spark.sql.execution.exchange.ShuffleExchangeExec
import org.apache.spark.sql.execution.joins.{BroadcastNestedLoopJoinExec, CartesianProductExec}
import org.apache.spark.sql.execution.window.WindowExec
import org.apache.spark.sql.functions._
import org.apache.spark.sql.streaming.OutputMode

import repro.{Oracle, OracleSql, RowCompare, SparkSpec, TestData}
import repro.bench.Harness
import repro.meos.Geo
import repro.sncb.{RailNetwork, TrainData, Zone}
import repro.stream.StreamRunner

/** Q5–Q8 against the DuckDB oracle and the naive baselines. */
class GcepSpec extends SparkSpec {

  private lazy val ev = TestData.events002
  private lazy val zones = TestData.zones

  private val kx = Geo.MetersPerDegLon
  private val ky = Geo.MetersPerDegLat

  // ---------------------------------------------------------- Q5 ----

  private lazy val q5 = Gcep.batteryMonitoring(ev, zones).cache()

  test("Q5 matches the DuckDB oracle") {
    Oracle.assertEquivalent(q5,
      s"""WITH e AS (${OracleSql.E}), z AS (${OracleSql.Z}),
         |d AS (SELECT train, ts_ms, lon, lat, temp_c,
         |        abs(battery_v - (${TrainData.BatteryBaseV} +
         |          (1.0 - abs(CAST(seq % ${TrainData.BatteryCycle} AS DOUBLE)
         |                     / ${TrainData.BatteryCycle.toDouble} * 2 - 1))
         |            * ${TrainData.BatteryAmpV})) AS dev
         |      FROM e),
         |w AS (SELECT (ts_ms // 300000) * 300000 AS win_start, train,
         |        COUNT(*) AS n_events, AVG(dev) AS avg_dev, MAX(dev) AS max_dev,
         |        MAX(temp_c) AS max_temp, AVG(lon) AS c_lon, AVG(lat) AS c_lat
         |      FROM d GROUP BY 1, 2),
         |al AS (SELECT *, CASE WHEN max_dev > 1.5 AND max_temp > 35.0 THEN 'BOTH'
         |                      WHEN max_dev > 1.5 THEN 'BATTERY'
         |                      ELSE 'OVERHEAT' END AS alert_kind
         |       FROM w WHERE max_dev > 1.5 OR max_temp > 35.0),
         |ws AS (SELECT zone_id AS w_id, (xmin + xmax) / 2 AS w_lon,
         |              (ymin + ymax) / 2 AS w_lat FROM z WHERE kind = 'workshop'),
         |x AS (SELECT al.*, ws.w_id,
         |        sqrt(((ws.w_lon - al.c_lon) * $kx) * ((ws.w_lon - al.c_lon) * $kx)
         |           + ((ws.w_lat - al.c_lat) * $ky) * ((ws.w_lat - al.c_lat) * $ky)) AS dist
         |      FROM al CROSS JOIN ws)
         |SELECT win_start, train, n_events, avg_dev, max_dev, max_temp, alert_kind,
         |       arg_min(w_id, dist) AS workshop_id, MIN(dist) AS workshop_dist_m
         |FROM x GROUP BY 1, 2, 3, 4, 5, 6, 7""".stripMargin,
      "events" -> ev, "zones" -> zones)
  }

  test("Q5 produces battery and overheat alerts at SF=0.002") {
    val kinds = q5.select("alert_kind").distinct().collect().map(_.getString(0)).toSet
    assert(kinds.contains("BATTERY"), s"alert kinds: $kinds")
    assert(q5.count() > 0)
  }

  test("Q5 alert thresholds hold on every output row") {
    assert(q5.where(col("max_dev") <= 1.5 && col("max_temp") <= 35.0).count() == 0)
  }

  test("Q5 nearest workshop is one of the three workshops") {
    val wids = zones.where(col("kind") === "workshop")
      .select("zone_id").collect().map(_.getInt(0)).toSet
    val got = q5.select("workshop_id").distinct().collect().map(_.getInt(0)).toSet
    assert(got.subsetOf(wids))
  }

  test("Q5 workshop distance is the minimum over workshops") {
    q5.collect().foreach { r =>
      val d = r.getAs[Double]("workshop_dist_m")
      assert(d >= 0.0 && d < 200000.0, s"implausible workshop distance $d")
    }
  }

  test("Q5 and its baseline keep every alert with 0, 1 or 3 workshops") {
    val alerts = q5.count()
    for (ws <- Seq(Seq.empty[Zone], RailNetwork.workshops.take(1), RailNetwork.workshops)) {
      val z = zones.where(col("kind") =!= "workshop" || col("zone_id").isin(ws.map(_.zoneId): _*))
      val batch = Gcep.batteryMonitoring(ev, z)
      RowCompare.assertSameRows(batch, Baselines.batteryMonitoring(ev, z))
      // The benchmark's Q5 reference is that baseline, over a table of `ws`.
      RowCompare.assertSameRows(batch, Streaming.batteryMonitoring(ev, ws))
      assert(batch.count() == alerts)
      val ids = batch.select("workshop_id", "workshop_dist_m").collect()
        .map(r => (Option(r.get(0)), Option(r.get(1))))
      if (ws.isEmpty) assert(ids.forall(_ == (None, None)), ids.toSeq)
      else assert(ids.forall { case (id, d) =>
        id.exists(i => ws.exists(_.zoneId == i)) && d.isDefined }, ids.toSeq)
    }
  }

  test("Q5 and its baseline give an alert without a finite centroid no workshop") {
    // Every lon of train 1 is NaN; the other trains' windows keep finite ones.
    val bad = TestData.badPositions002
    val got = Gcep.batteryMonitoring(bad, zones).cache()
    RowCompare.assertSameRows(got, Baselines.batteryMonitoring(bad, zones))
    RowCompare.assertSameRows(got, Streaming.batteryMonitoring(bad, RailNetwork.workshops))
    assert(got.count() == q5.count())
    val (none, some) = got.collect().toSeq.partition(_.getAs[Int]("train") == 1)
    assert(none.nonEmpty && some.nonEmpty)
    assert(none.forall(r => r.isNullAt(r.fieldIndex("workshop_id")) &&
      r.isNullAt(r.fieldIndex("workshop_dist_m"))), none)
    assert(some.forall(r => !r.isNullAt(r.fieldIndex("workshop_id")) &&
      r.getAs[Double]("workshop_dist_m").isFinite), some)
  }

  test("Q5 picks the nearest workshop without a join: one aggregation exchange") {
    val nodes = executedNodes(Gcep.batteryMonitoring(ev, zones))
    assert(!nodes.exists(n => n.isInstanceOf[CartesianProductExec] ||
      n.isInstanceOf[BroadcastNestedLoopJoinExec]), nodes)
    assert(nodes.count(_.isInstanceOf[ShuffleExchangeExec]) == 1, nodes)
  }

  // ---------------------------------------------------------- Q6 ----

  private lazy val q6 = Gcep.heavyPassengerLoad(ev).cache()

  test("Q6 matches the DuckDB oracle") {
    Oracle.assertEquivalent(q6,
      s"""WITH e AS (${OracleSql.E})
         |SELECT * FROM (
         |  SELECT (ts_ms // 600000) * 600000 AS win_start, train,
         |         COUNT(*) AS n_events, AVG(CAST(passengers AS DOUBLE)) AS avg_pax,
         |         MAX(passengers) AS max_pax,
         |         AVG(CAST(passengers AS DOUBLE)) / ${TrainData.Capacity} AS occupancy
         |  FROM e GROUP BY 1, 2)
         |WHERE occupancy >= 1.0""".stripMargin,
      "events" -> ev)
  }

  test("Q6 fires for overloaded windows only") {
    assert(q6.count() > 0, "no overloaded windows at SF=0.002")
    assert(q6.where(col("occupancy") < 1.0).count() == 0)
    // And not every window is overloaded:
    val all = repro.stream.Windows.tumbling(ev, "ts_ms", 600000L, Seq("train"),
      Seq(count(lit(1)).as("n"))).count()
    assert(q6.count() < all)
  }

  test("Q6 occupancy is avg_pax / capacity") {
    q6.collect().foreach { r =>
      assert(math.abs(r.getAs[Double]("occupancy") -
        r.getAs[Double]("avg_pax") / TrainData.Capacity) < 1e-12)
    }
  }

  // ---------------------------------------------------------- Q7 ----

  private lazy val q7 = Gcep.unscheduledStops(ev, zones).cache()

  private def q7OracleSql(minDur: Long): String =
    s"""WITH e AS (${OracleSql.E}), z AS (${OracleSql.Z}),
       |m AS (SELECT train, ts_ms, speed_kmh, lon, lat,
       |        CASE WHEN lag(speed_kmh < 1.0) OVER w IS NULL
       |               OR lag(speed_kmh < 1.0) OVER w <> (speed_kmh < 1.0)
       |             THEN 1 ELSE 0 END AS chg
       |      FROM e WINDOW w AS (PARTITION BY train ORDER BY ts_ms)),
       |isl AS (SELECT *, SUM(chg) OVER (PARTITION BY train ORDER BY ts_ms
       |          ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS island
       |        FROM m),
       |wins AS (SELECT train, island, MIN(ts_ms) AS startMs, MAX(ts_ms) AS endMs,
       |           COUNT(*) AS n, AVG(lon) AS cLon, AVG(lat) AS cLat
       |         FROM isl WHERE speed_kmh < 1.0 GROUP BY train, island)
       |SELECT CAST(train AS BIGINT) AS train, startMs, endMs, n, cLon, cLat
       |FROM wins
       |WHERE endMs - startMs >= $minDur
       |  AND NOT EXISTS (SELECT 1 FROM z
       |        WHERE z.kind IN ('station', 'workshop')
       |          AND ${OracleSql.inZone("wins.cLon", "wins.cLat")})""".stripMargin

  test("Q7 matches the DuckDB oracle") {
    Oracle.assertEquivalent(q7, q7OracleSql(60000L), "events" -> ev, "zones" -> zones)
  }

  test("Q7 equals the naive baseline") {
    RowCompare.assertSameRows(q7, Baselines.unscheduledStops(ev, zones))
  }

  test("Q7 and Q8b at null, NaN and infinite positions equal their baselines") {
    val bad = TestData.badPositions002
    Seq("CODEGEN_ONLY", "NO_CODEGEN").foreach { mode => withCodegen(mode) {
      val stops = Gcep.unscheduledStops(bad, zones).cache()
      RowCompare.assertSameRows(stops, Baselines.unscheduledStops(bad, zones))
      RowCompare.assertSameRows(Gcep.persistentLowPressure(bad), Baselines.persistentLowPressure(bad))
      // Train 1 has no finite lon: its stops have no centroid, so no zone.
      assert(stops.where(col("train") === 1 && col("cLon").isNull && col("cLat").isNotNull)
        .count() > 0)
      assert(stops.where(isnan(col("cLon")) || isnan(col("cLat"))).count() == 0)
      stops.unpersist()
    } }
  }

  test("Q7 finds unscheduled stops but not every stop") {
    val allStops = repro.stream.ThresholdWindow(Gcep.series(ev, "speed_kmh"),
      col("value") < 1.0, 60000L).count()
    assert(q7.count() > 0, "no unscheduled stops at SF=0.002")
    assert(q7.count() <= allStops)
  }

  test("Q7 stop durations are at least the minimum duration") {
    assert(q7.where(col("endMs") - col("startMs") < 60000L).count() == 0)
  }

  test("Q7 centroids are outside every designated zone") {
    val designated = zones.where(col("kind").isin("station", "workshop"))
    val inside = q7.join(designated,
      expr("st_in_box(cLon, cLat, xmin, xmax, ymin, ymax)"), "left_semi")
    assert(inside.count() == 0)
  }

  // ---------------------------------------------------------- Q8 ----

  private lazy val q8a = Gcep.brakePatterns(TestData.events01, 600000L, 120000L, 2L).cache()

  test("Q8a matches the DuckDB oracle (SF=0.01, k=2)") {
    Oracle.assertEquivalent(q8a,
      s"""WITH e AS (${OracleSql.E}),
         |s AS (SELECT *,
         |        CAST(floor((lon - ${RailNetwork.LonMin}) / 0.02) AS BIGINT) * 1000
         |        + CAST(floor((lat - ${RailNetwork.LatMin}) / 0.015) AS BIGINT) AS segment
         |      FROM e),
         |em AS (SELECT segment, ts_ms FROM s WHERE brake_bar < 2.0),
         |rep AS (SELECT segment, ts_ms,
         |          (ts_ms // 120000 - off) * 120000 AS win_start
         |        FROM em CROSS JOIN (SELECT unnest(range(0, 5)) AS off)
         |        WHERE ts_ms >= (ts_ms // 120000 - off) * 120000
         |          AND ts_ms <  (ts_ms // 120000 - off) * 120000 + 600000)
         |SELECT win_start, segment, COUNT(*) AS n_events,
         |       MIN(ts_ms) AS first_ms, MAX(ts_ms) AS last_ms
         |FROM rep GROUP BY 1, 2 HAVING COUNT(*) >= 2""".stripMargin,
      "events" -> TestData.events01)
  }

  test("Q8a equals the no-pushdown baseline") {
    RowCompare.assertSameRows(q8a,
      Baselines.brakePatterns(TestData.events01, 600000L, 120000L, 2L))
  }

  test("Q8a fires somewhere at SF=0.01 with k=2") {
    assert(q8a.count() > 0)
    assert(q8a.where(col("n_events") < 2).count() == 0)
  }

  test("Q8a window span covers first..last emergency") {
    q8a.collect().foreach { r =>
      val ws = r.getAs[Long]("win_start")
      assert(r.getAs[Long]("first_ms") >= ws)
      assert(r.getAs[Long]("last_ms") < ws + 600000L)
      assert(r.getAs[Long]("first_ms") <= r.getAs[Long]("last_ms"))
    }
  }

  // Every emergency-brake event again at positions that have no track
  // segment: NaN, null, infinite and far off-frame coordinates.
  private lazy val badBrakes = {
    val brakes = TestData.events01.where(col("brake_bar") < 2.0)
    Seq[(Column, Column)]((lit(Double.NaN), col("lat")), (lit(null).cast("double"), col("lat")),
      (lit(Double.PositiveInfinity), col("lat")), (lit(Double.NegativeInfinity), col("lat")),
      (lit(1e18), col("lat")), (col("lon"), lit(Double.NaN)), (col("lon"), lit(-1e18))
    ).zipWithIndex.map { case ((lon, lat), i) =>
      brakes.withColumn("id", col("id") + (i + 1) * 1000000000L)
        .withColumn("lon", lon).withColumn("lat", lat)
    }.reduce(_ union _)
  }

  test("Q8a and its baseline ignore brake events without a track segment") {
    val messy = TestData.events01.union(badBrakes)
    Seq("CODEGEN_ONLY", "NO_CODEGEN").foreach { mode => withCodegen(mode) {
      RowCompare.assertSameRows(Gcep.brakePatterns(messy, 600000L, 120000L, 2L), q8a)
      RowCompare.assertSameRows(Baselines.brakePatterns(messy, 600000L, 120000L, 2L), q8a)
    } }
  }

  test("Q8a on a stream ignores brake events without a track segment") {
    implicit val s = spark
    import s.implicits._
    // A stream event's lon is a primitive double: it cannot be null.
    val messy = TestData.events01.where(col("brake_bar") < 2.0)
      .union(badBrakes.where(col("lon").isNotNull))
    val got = StreamRunner.runCollect[SensorEvent](spark, Harness.toChunks(messy, 3000),
      (ds: Dataset[SensorEvent]) => Gcep.brakePatterns(ds.toDF(), 600000L, 120000L, 2L),
      OutputMode.Complete(), "q8a_bad_positions")
    RowCompare.assertSameRows(got, q8a)
  }

  test("Q8a computes the track segment of emergency-brake events only") {
    val plan = Gcep.brakePatterns(TestData.events01).queryExecution.optimizedPlan
    val segmentAbove = plan.collect {
      case p: Project if p.projectList.exists(_.name == "segment") =>
        p.child.exists {
          case f: Filter => f.condition.references.exists(_.name == "brake_bar")
          case _ => false
        }
    }
    assert(segmentAbove.nonEmpty && segmentAbove.forall(identity), plan.treeString)
  }

  private lazy val q8b = Gcep.persistentLowPressure(ev).cache()

  test("Q8b matches the DuckDB oracle") {
    Oracle.assertEquivalent(q8b,
      s"""WITH e AS (${OracleSql.E}),
         |m AS (SELECT train, ts_ms, brake_bar, lon, lat,
         |        CASE WHEN lag(brake_bar < 4.0) OVER w IS NULL
         |               OR lag(brake_bar < 4.0) OVER w <> (brake_bar < 4.0)
         |             THEN 1 ELSE 0 END AS chg
         |      FROM e WINDOW w AS (PARTITION BY train ORDER BY ts_ms)),
         |isl AS (SELECT *, SUM(chg) OVER (PARTITION BY train ORDER BY ts_ms
         |          ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS island
         |        FROM m)
         |SELECT CAST(train AS BIGINT) AS train, MIN(ts_ms) AS startMs,
         |       MAX(ts_ms) AS endMs, COUNT(*) AS n, AVG(brake_bar) AS avgValue,
         |       AVG(lon) AS cLon, AVG(lat) AS cLat
         |FROM isl WHERE brake_bar < 4.0 GROUP BY train, island
         |HAVING MAX(ts_ms) - MIN(ts_ms) >= 240000""".stripMargin,
      "events" -> ev)
  }

  test("Q8b equals the gaps-and-islands baseline") {
    implicit val s = spark
    import s.implicits._
    RowCompare.assertSameRows(q8b, Baselines.persistentLowPressure(ev))
    // On batch input Streaming's Q8b is that baseline: the reference the
    // benchmark checks batch Q8b against.
    RowCompare.assertSameRows(q8b, Streaming.persistentLowPressure(ev.as[SensorEvent]))
  }

  test("Q7 and Q8b fold threshold windows in one shuffle, no window operator") {
    for (q <- Seq(Gcep.unscheduledStops(ev, zones), Gcep.persistentLowPressure(ev))) {
      val nodes = executedNodes(q)
      assert(!nodes.exists(_.isInstanceOf[WindowExec]), nodes)
      assert(nodes.count(_.isInstanceOf[ShuffleExchangeExec]) == 1, nodes)
    }
  }

  test("Q8b finds the planted persistent-low episodes") {
    assert(q8b.count() > 0, "no persistent low-pressure episodes at SF=0.002")
    // All reported episodes have mean pressure below the 4-bar threshold.
    assert(q8b.where(col("avgValue") >= 4.0).count() == 0)
  }

  test("Q8b episode durations respect the minimum duration") {
    assert(q8b.where(col("endMs") - col("startMs") < 240000L).count() == 0)
  }
}
