package repro.core

import java.nio.file.Files
import java.util.concurrent.{CountDownLatch, Executors, LinkedBlockingQueue, TimeUnit}

import org.apache.commons.io.FileUtils
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.{AnalysisException, Column, DataFrame, Encoder, Encoders}
import org.apache.spark.sql.execution.{InputAdapter, SparkPlan, WholeStageCodegenExec}
import org.apache.spark.sql.execution.exchange.{BroadcastExchangeExec, Exchange}
import org.apache.spark.sql.execution.joins.BaseJoinExec
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.functions._

import repro.{Oracle, OracleSql, RowCompare, SparkSpec, TestData}
import repro.meos.expressions.StWeather
import repro.sncb.{RailNetwork, TrainData, Zone}

/** Q1–Q4 against the DuckDB oracle (rectangles → plain arithmetic) and
  * against the naive baselines (which must return identical rows).
  */
class GeofencingSpec extends SparkSpec {

  private lazy val ev = TestData.events002
  private lazy val zones = TestData.zones
  private lazy val weather = TestData.weather

  // ---------------------------------------------------------- Q1 ----

  private lazy val q1 = Geofencing.alertFiltering(ev, zones).cache()

  test("Q1 matches the DuckDB oracle") {
    Oracle.assertEquivalent(q1,
      s"""WITH e AS (${OracleSql.E}), z AS (${OracleSql.Z}),
         |a AS (SELECT id, train, ts_ms, lon, lat, alert_type FROM e
         |      WHERE alert_type IS NOT NULL),
         |inm AS (SELECT DISTINCT a.id FROM a JOIN z
         |        ON z.kind = 'maintenance' AND ${OracleSql.inZone("a.lon", "a.lat")})
         |SELECT a.id, a.train, a.ts_ms, a.lon, a.lat, a.alert_type,
         |       (a.id IN (SELECT id FROM inm)) AS in_maintenance
         |FROM a
         |WHERE NOT (a.id IN (SELECT id FROM inm) AND a.alert_type = 'SPEED')""".stripMargin,
      "events" -> ev, "zones" -> zones)
  }

  test("Q1 equals the naive cross-join baseline") {
    RowCompare.assertSameRows(q1, Baselines.alertFiltering(ev, zones))
  }

  test("Q1 emits alerts and drops at least one in-maintenance SPEED alert") {
    // SF=0.01 so a SPEED alert provably falls inside a maintenance zone.
    val ev01 = TestData.events01
    val out = Geofencing.alertFiltering(ev01, zones)
    val alerts = ev01.where(col("alert_type").isNotNull)
    val mz = zones.where(col("kind") === "maintenance")
    val speedInMaint = alerts.where(col("alert_type") === "SPEED")
      .join(mz, expr("st_in_box(lon, lat, xmin, xmax, ymin, ymax)"), "left_semi")
      .count()
    assert(speedInMaint > 0, "generator planted no in-maintenance SPEED alert at SF=0.01")
    assert(out.count() == alerts.count() - speedInMaint)
  }

  test("Q1 never emits a SPEED alert flagged in_maintenance") {
    assert(q1.where(col("in_maintenance") && col("alert_type") === "SPEED").count() == 0)
  }

  test("Q1 keeps EQUIP (essential) alerts inside maintenance zones") {
    // Every EQUIP alert of the input survives.
    val equipIn = ev.where(col("alert_type") === "EQUIP").count()
    assert(q1.where(col("alert_type") === "EQUIP").count() == equipIn)
  }

  test("Q1 puts alerts at null and NaN positions in no maintenance zone") {
    val alerts = ev.where(col("alert_type").isNotNull)
    val idStep = ev.agg(max("id")).head().getLong(0) + 1
    val noDouble = lit(null).cast("double")
    val bad = Seq[(Column, Column)]((noDouble, col("lat")), (col("lon"), noDouble),
      (lit(Double.NaN), col("lat")))
    val copies = bad.zipWithIndex.map { case ((lon, lat), i) =>
      alerts.withColumn("id", col("id") + idStep * (i + 1))
        .withColumn("lon", lon).withColumn("lat", lat)
    }.reduce(_ union _)
    val events = alerts.union(copies)
    val speedCopies = copies.where(col("alert_type") === "SPEED").count()
    assert(speedCopies > 0)
    Seq("CODEGEN_ONLY", "NO_CODEGEN").foreach { mode => withCodegen(mode) {
      val out = Geofencing.alertFiltering(events, zones)
      RowCompare.assertSameRows(out, Baselines.alertFiltering(events, zones))
      val copied = out.where(col("id") >= idStep)
      assert(copied.where(col("in_maintenance").isNull || col("in_maintenance")).count() == 0,
        mode)
      assert(copied.where(col("alert_type") === "SPEED").count() == speedCopies, mode)
    } }
  }

  // ---------------------------------------------------------- Q2 ----

  private lazy val q2 = Geofencing.noiseMonitoring(ev, zones).cache()

  test("Q2 matches the DuckDB oracle") {
    Oracle.assertEquivalent(q2,
      s"""WITH e AS (${OracleSql.E}), z AS (${OracleSql.Z}),
         |nb AS (SELECT e.ts_ms, z.zone_id, e.noise_db, z.lim FROM e JOIN z
         |       ON z.kind = 'neighbourhood' AND ${OracleSql.inZone("e.lon", "e.lat")})
         |SELECT (ts_ms // 60000) * 60000 AS win_start, zone_id,
         |       COUNT(*) AS n_events, AVG(noise_db) AS avg_db,
         |       MAX(noise_db) AS max_db, MAX(lim) AS lim,
         |       AVG(noise_db) > MAX(lim) AS exceeded
         |FROM nb GROUP BY 1, 2""".stripMargin,
      "events" -> ev, "zones" -> zones)
  }

  test("Q2 equals the naive baseline") {
    RowCompare.assertSameRows(q2, Baselines.noiseMonitoring(ev, zones))
  }

  test("Q2 produces windows and some exceed the ceiling") {
    assert(q2.count() > 0)
    assert(q2.where(col("exceeded")).count() > 0, "no window exceeded its dB ceiling")
    assert(q2.where(!col("exceeded")).count() > 0, "every window exceeded — not discriminating")
  }

  test("Q2 window starts are aligned to the window size") {
    assert(q2.where(col("win_start") % 60000L =!= 0).count() == 0)
  }

  // ---------------------------------------------------------- Q3 ----

  private lazy val q3 = Geofencing.dynamicSpeedLimit(ev, zones).cache()

  test("Q3 matches the DuckDB oracle") {
    Oracle.assertEquivalent(q3,
      s"""WITH e AS (${OracleSql.E}), z AS (${OracleSql.Z})
         |SELECT e.id, e.train, e.ts_ms, e.lon, e.lat, z.zone_id,
         |       e.speed_kmh, z.lim AS suggested_kmh
         |FROM e JOIN z ON z.kind = 'curve'
         |  AND ${OracleSql.inZone("e.lon", "e.lat")}
         |  AND e.speed_kmh > z.lim""".stripMargin,
      "events" -> ev, "zones" -> zones)
  }

  test("Q3 equals the naive baseline") {
    RowCompare.assertSameRows(q3, Baselines.dynamicSpeedLimit(ev, zones))
  }

  test("Q3 reports only true violations") {
    assert(TestData.events01.count() > 0)
    val v = Geofencing.dynamicSpeedLimit(TestData.events01, zones)
    assert(v.count() > 0, "no violations found at SF=0.01")
    assert(v.where(col("speed_kmh") <= col("suggested_kmh")).count() == 0)
  }

  test("Q3 violations lie inside their curve zone") {
    val withZone = q3.join(
      zones.select(col("zone_id"), col("xmin"), col("xmax"), col("ymin"), col("ymax")),
      Seq("zone_id"))
    assert(withZone.where(
      !expr("st_in_box(lon, lat, xmin, xmax, ymin, ymax)")).count() == 0)
  }

  // ---------------------------------------------------------- Q4 ----

  private lazy val q4 = Geofencing.weatherSpeedZones(ev, weather).cache()

  test("Q4 matches the DuckDB oracle") {
    Oracle.assertEquivalent(q4,
      s"""WITH e AS (${OracleSql.E}), w AS (${OracleSql.W}),
         |e2 AS (SELECT *,
         |  CAST(floor((lon - ${RailNetwork.LonMin}) / ${RailNetwork.CellLon}) AS INT) AS cell_x,
         |  CAST(floor((lat - ${RailNetwork.LatMin}) / ${RailNetwork.CellLat}) AS INT) AS cell_y,
         |  (ts_ms - ${TrainData.T0}) // 3600000 * 3600000 + ${TrainData.T0} AS hour_ms
         |  FROM e)
         |SELECT e2.id, e2.train, e2.ts_ms, w.condition, w.severity, e2.speed_kmh,
         |       (CASE w.condition WHEN 0 THEN 130.0 WHEN 1 THEN 100.0
         |                         WHEN 3 THEN 80.0 ELSE 60.0 END)
         |         * (1.0 - w.severity * 0.3) AS suggested_kmh
         |FROM e2 JOIN w ON e2.cell_x = w.cell_x AND e2.cell_y = w.cell_y
         |              AND e2.hour_ms = w.hour_ms
         |WHERE e2.speed_kmh >
         |      (CASE w.condition WHEN 0 THEN 130.0 WHEN 1 THEN 100.0
         |                        WHEN 3 THEN 80.0 ELSE 60.0 END)
         |        * (1.0 - w.severity * 0.3)""".stripMargin,
      "events" -> ev, "weather" -> weather)
  }

  test("Q4 flags violations under degraded weather only when speed exceeds the cap") {
    assert(q4.count() > 0, "no weather violations at SF=0.002")
    assert(q4.where(col("speed_kmh") <= col("suggested_kmh")).count() == 0)
  }

  test("Q4 looks its weather up inside whole-stage codegen: no join, exchange or broadcast") {
    val nodes = executedNodes(Geofencing.weatherSpeedZones(ev, weather))
    assert(!nodes.exists(n => n.isInstanceOf[BaseJoinExec] || n.isInstanceOf[Exchange] ||
      n.isInstanceOf[BroadcastExchangeExec]), nodes)
    def stage(p: SparkPlan): Seq[SparkPlan] = p match {
      case _: InputAdapter => Nil
      case _ => p +: p.children.flatMap(stage)
    }
    val compiled = nodes.collect { case w: WholeStageCodegenExec => stage(w.child) }.flatten
    val lookups = nodes.filter(_.expressions.exists(_.exists(_.isInstanceOf[StWeather])))
    assert(lookups.nonEmpty && lookups.forall(compiled.contains), nodes)
  }

  test("Q4 gives no weather to NaN, null, infinite and off-frame positions") {
    // One event, at 200 km/h so that any weather flags it, at its own
    // position and at positions that have no weather cell.
    val first = ev.orderBy("id").limit(1).withColumn("speed_kmh", lit(200.0))
    val r = first.head()
    val positions = Seq[(Column, Column)]((col("lon"), col("lat")),
      (lit(Double.NaN), col("lat")), (col("lon"), lit(Double.NaN)),
      (lit(null).cast("double"), col("lat")), (col("lon"), lit(null).cast("double")),
      (lit(Double.PositiveInfinity), col("lat")), (col("lon"), lit(Double.NegativeInfinity)),
      (lit(1e12), col("lat")), (col("lon"), lit(-1e12)), (lit(3.5), lit(50.0)))
    val events = positions.zipWithIndex.map { case ((lon, lat), i) =>
      first.withColumn("id", col("id") + i).withColumn("lon", lon).withColumn("lat", lat)
    }.reduce(_ union _)
    val (lon, lat) = (r.getAs[Double]("lon"), r.getAs[Double]("lat"))
    val w = weather.where(
      col("cell_x") === math.floor((lon - RailNetwork.LonMin) / RailNetwork.CellLon).toInt &&
      col("cell_y") === math.floor((lat - RailNetwork.LatMin) / RailNetwork.CellLat).toInt &&
      col("hour_ms") === r.getAs[Long]("ts_ms") / 3600000L * 3600000L).head()
    val (condition, severity) = (w.getAs[Int]("condition"), w.getAs[Double]("severity"))
    val cap = Map(0 -> 130.0, 1 -> 100.0, 3 -> 80.0).getOrElse(condition, 60.0)
    val want = Seq(Seq[Any](r.getAs[Long]("id"), r.getAs[Int]("train"), r.getAs[Long]("ts_ms"),
      condition, severity, 200.0, cap * (1.0 - severity * 0.3)))
    Seq("CODEGEN_ONLY", "NO_CODEGEN").foreach { mode => withCodegen(mode) {
      val got = Geofencing.weatherSpeedZones(events, weather).collect().map(_.toSeq).toSeq
      assert(got == want, mode)
    } }
  }

  test("Q4 equals the broadcast-join baseline on missing, duplicate, unaligned and no weather") {
    val all = Baselines.weatherSpeedZones(ev, weather).count()
    val tables = Seq(
      ("TestData.weather", weather, (n: Long) => n == all),
      ("missing cells and hours", weather.where(col("cell_x") =!= 3 &&
        !(col("cell_y") % 2 === 0 && col("hour_ms") === TrainData.T0)), (n: Long) => n < all),
      ("duplicate keys", weather.union(weather.where(col("cell_x") < 5)
        .withColumn("condition", (col("condition") + 1) % 4)
        .withColumn("severity", lit(1.0) - col("severity"))), (n: Long) => n > all),
      ("hours not on the hour", weather.withColumn("hour_ms",
        when(col("cell_x") % 2 === 0, col("hour_ms") + 60000L).otherwise(col("hour_ms"))),
        (n: Long) => n < all),
      ("no rows", weather.limit(0), (n: Long) => n == 0))
    tables.foreach { case (name, table, size) =>
      val want = Baselines.weatherSpeedZones(ev, table)
      assert(size(want.count()), s"$name: ${want.count()} rows against $all")
      Seq("CODEGEN_ONLY", "NO_CODEGEN").foreach(withCodegen(_)(
        RowCompare.assertSameRows(Geofencing.weatherSpeedZones(ev, table), want)))
    }
  }

  test("st_weather rejects a table that is not a constant") {
    val table = spark.range(1).select(array(struct(col("id").cast("int").as("cell_x"),
      lit(0).as("cell_y"), lit(TrainData.T0).as("hour_ms"), lit(0).as("condition"),
      lit(0.5).as("severity"))).as("table"))
    val e = intercept[AnalysisException](
      table.selectExpr(s"st_weather(0, 0, ${TrainData.T0}L, table)"))
    assert(e.getMessage.contains("must be a constant"), e.getMessage)
  }

  test("Q4 runs one Spark job per batch execution and per micro-batch") {
    val batch = Geofencing.weatherSpeedZones(ev, weather) // builds the plan
    assert(jobsOf(batch.write.format("noop").mode("overwrite").save()) == 1)
    implicit val sqlCtx: org.apache.spark.sql.SQLContext = spark.sqlContext
    implicit val encoder: Encoder[SensorEvent] = Encoders.product[SensorEvent]
    val source = MemoryStream[SensorEvent]
    val query = Geofencing.weatherSpeedZones(source.toDF(), weather)
      .writeStream.format("noop").start()
    try {
      val chunks = ev.orderBy("ts_ms", "train").as[SensorEvent].collect().toSeq.grouped(4000).toSeq
      // A streaming query runs its jobs under its run id as job group.
      val jobs = jobsOf(chunks.foreach { c => source.addData(c); query.processAllAvailable() },
        group = query.runId.toString)
      assert(query.recentProgress.count(_.numInputRows > 0) == chunks.size)
      assert(jobs == chunks.size, s"$jobs jobs for ${chunks.size} micro-batches")
    } finally query.stop()
  }

  test("Q4 snow caps are the strictest") {
    val bySnow = q4.where(col("condition") === 2)
    assert(bySnow.where(col("suggested_kmh") > 60.0).count() == 0)
  }

  // ------------------------------------------------ zone catalogues ----

  /** The Spark jobs `body` starts whose job group is `group`: the group
    * `body` runs under (by default one of its own) or, for the jobs of a
    * streaming query, the query's. A marker job run after `body` shows
    * when the listener bus has delivered every job started before it.
    */
  private def jobsOf(body: => Unit,
                     group: String = s"zone-catalogue-${java.util.UUID.randomUUID}"): Int = {
    val marker = s"$group-marker"
    val seen = new LinkedBlockingQueue[String]()
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id")))
          .filter(_.startsWith(group)).foreach(seen.put)
    }
    val sc = spark.sparkContext
    sc.addSparkListener(listener)
    try {
      def in(g: String)(f: => Unit): Unit = {
        sc.setJobGroup(g, g)
        try f finally sc.clearJobGroup()
      }
      in(group)(body)
      in(marker)(sc.parallelize(Seq(1), 1).count())
      Iterator.continually(seen.poll(60, TimeUnit.SECONDS))
        .map(g => { assert(g != null, "the marker job never reached the listener"); g })
        .takeWhile(_ != marker).size
    } finally sc.removeSparkListener(listener)
  }

  /** Plan builds of the five queries that read a zone catalogue. */
  private def zonePlans(zones: DataFrame): Seq[(String, () => DataFrame)] = Seq(
    "Q1" -> (() => Geofencing.alertFiltering(ev, zones)),
    "Q2" -> (() => Geofencing.noiseMonitoring(ev, zones)),
    "Q3" -> (() => Geofencing.dynamicSpeedLimit(ev, zones)),
    "Q5" -> (() => Gcep.batteryMonitoring(ev, zones)),
    "Q7" -> (() => Gcep.unscheduledStops(ev, zones)))

  /** Run `f` on the path of a new parquet file of `zones`; the file is
    * deleted afterwards.
    */
  private def withParquetZones[A](zones: Seq[Zone])(f: String => A): A = {
    val dir = Files.createTempDirectory("zones")
    try {
      val path = dir.resolve("zones.parquet").toString
      RailNetwork.toDf(spark, zones).write.parquet(path)
      f(path)
    } finally FileUtils.deleteDirectory(dir.toFile)
  }

  test("a cached zone table is collected once; an uncached one at every plan build") {
    assert(!ev.isEmpty) // the events are generated and cached before counting
    val catalogue = RailNetwork.all ++ RailNetwork.syntheticZones(40, seed = 11)
    val cached = RailNetwork.toDf(spark, catalogue).cache()
    try {
      val plans = zonePlans(cached)
      assert(jobsOf(plans.foreach(_._2())) == 1, "the first build collects the catalogue")
      plans.foreach { case (q, build) => assert(jobsOf(build()) == 0, s"$q rebuilt") }
    } finally cached.unpersist(blocking = true)
    withParquetZones(catalogue) { path =>
      zonePlans(spark.read.parquet(path)).foreach { case (q, build) =>
        assert(jobsOf(build()) == 1, s"$q, first build")
        assert(jobsOf(build()) == 1, s"$q, second build")
      }
    }
    // Q4's weather table, the same way, and again after a rewrite.
    val dir = Files.createTempDirectory("weather")
    try {
      val path = dir.resolve("weather.parquet").toString
      TrainData.weather(spark, hours = 4, seed = 5).write.parquet(path)
      def q4(w: DataFrame) = Geofencing.weatherSpeedZones(ev, w)
      val uncached = spark.read.parquet(path)
      assert(jobsOf(q4(uncached)) == 1 && jobsOf(q4(uncached)) == 1, "Q4, uncached")
      val before = spark.read.parquet(path).cache()
      val kept = try {
        assert(jobsOf(q4(before)) == 1, "Q4, first build")
        assert(jobsOf(q4(before)) == 0, "Q4 rebuilt")
        RowCompare.canon(q4(before))
      } finally before.unpersist(blocking = true)
      TrainData.weather(spark, hours = 4, seed = 5)
        .withColumn("condition", lit(2)).withColumn("severity", lit(0.9))
        .write.mode("overwrite").parquet(path)
      val after = spark.read.parquet(path).cache()
      try {
        assert(jobsOf(q4(after)) == 1, "Q4, first build after the rewrite")
        RowCompare.assertSameRows(q4(after), Baselines.weatherSpeedZones(ev, after))
        assert(RowCompare.canon(q4(after)) != kept)
      } finally after.unpersist(blocking = true)
    } finally FileUtils.deleteDirectory(dir.toFile)
  }

  test("Q1 reads the rewritten zone table after unpersist and cache again") {
    withParquetZones(RailNetwork.all) { path =>
      val before = spark.read.parquet(path).cache()
      val kept = try {
        Geofencing.alertFiltering(ev, before).select("id", "lon", "lat", "alert_type",
          "in_maintenance").collect().toSeq
      } finally before.unpersist(blocking = true)
      val speed = kept.filter(r => r.getString(3) == "SPEED" && !r.getBoolean(4))
        .minBy(_.getLong(0))
      val (lon, lat) = (speed.getDouble(1), speed.getDouble(2))
      val around = Zone(9000, "maintenance", lon - 1e-5, lon + 1e-5, lat - 1e-5, lat + 1e-5, 0)
      RailNetwork.toDf(spark, RailNetwork.all :+ around).write.mode("overwrite").parquet(path)
      val after = spark.read.parquet(path).cache()
      try {
        val ids = Geofencing.alertFiltering(ev, after).collect().map(_.getAs[Long]("id")).toSet
        assert(ids == kept.map(_.getLong(0)).toSet - speed.getLong(0))
      } finally after.unpersist(blocking = true)
    }
  }

  test("eight threads building Q1 over a freshly cached zone table get the same rows") {
    val zones = RailNetwork.toDf(spark,
      RailNetwork.all ++ RailNetwork.syntheticZones(300, seed = 13)).cache()
    val pool = Executors.newFixedThreadPool(8)
    val start = new CountDownLatch(1)
    try {
      val runs = (0 until 8).map(_ => pool.submit(() => {
        start.await()
        RowCompare.canon(Geofencing.alertFiltering(ev, zones))
      }))
      start.countDown()
      val want = RowCompare.canon(Baselines.alertFiltering(ev, zones))
      assert(want.nonEmpty)
      runs.foreach(r => assert(r.get(5, TimeUnit.MINUTES) == want))
    } finally {
      pool.shutdown()
      zones.unpersist(blocking = true)
    }
  }
}
