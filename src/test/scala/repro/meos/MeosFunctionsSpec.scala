package repro.meos

import org.apache.spark.sql.functions._
import org.apache.spark.sql.Row

import repro.{Oracle, SparkSpec}
import repro.core.NebulaMeos

class MeosFunctionsSpec extends SparkSpec {

  override def beforeAll(): Unit = { super.beforeAll(); NebulaMeos.setup(spark) }

  import scala.jdk.CollectionConverters._

  private lazy val pts = {
    import spark.implicits._
    Seq(
      (4.40, 50.80, 4.40, 50.80),
      (4.40, 50.80, 4.50, 50.80),
      (4.40, 50.80, 4.40, 50.90),
      (4.10, 50.55, 4.85, 51.05),
      (4.62, 50.71, 4.33, 50.99)
    ).toDF("lon1", "lat1", "lon2", "lat2").cache()
  }

  test("st_distance matches the Scala implementation") {
    val rows = pts.selectExpr("lon1", "lat1", "lon2", "lat2",
      "st_distance(lon1, lat1, lon2, lat2) AS d").collect()
    rows.foreach { r =>
      val exp = Geo.distMeters(r.getDouble(0), r.getDouble(1), r.getDouble(2), r.getDouble(3))
      assert(math.abs(r.getDouble(4) - exp) < 1e-9)
    }
  }

  test("st_distance matches the DuckDB arithmetic oracle") {
    val out = pts.selectExpr("lon1", "st_distance(lon1, lat1, lon2, lat2) AS d")
    val kx = Geo.MetersPerDegLon; val ky = Geo.MetersPerDegLat
    Oracle.assertEquivalent(out,
      s"""SELECT CAST(lon1 AS DOUBLE) AS lon1,
         |       sqrt(((CAST(lon2 AS DOUBLE)-CAST(lon1 AS DOUBLE))*$kx)*((CAST(lon2 AS DOUBLE)-CAST(lon1 AS DOUBLE))*$kx)
         |          + ((CAST(lat2 AS DOUBLE)-CAST(lat1 AS DOUBLE))*$ky)*((CAST(lat2 AS DOUBLE)-CAST(lat1 AS DOUBLE))*$ky)) AS d
         |FROM pts""".stripMargin,
      "pts" -> pts)
  }

  test("ed_within truth table") {
    val rows = spark.sql(
      """SELECT ed_within(4.40, 50.80, 4.50, 50.80, 7100.0) AS a,
        |       ed_within(4.40, 50.80, 4.50, 50.80, 7000.0) AS b,
        |       ed_within(4.40, 50.80, 4.40, 50.80, 0.0) AS c""".stripMargin).head()
    assert(rows.getBoolean(0), "0.1 deg lon ~ 7036 m, within 7100")
    assert(!rows.getBoolean(1), "not within 7000")
    assert(rows.getBoolean(2), "identical points within 0")
  }

  test("st_in_box closed bounds") {
    val r = spark.sql(
      """SELECT st_in_box(4.5, 50.5, 4.0, 5.0, 50.0, 51.0) AS inside,
        |       st_in_box(4.0, 50.0, 4.0, 5.0, 50.0, 51.0) AS lowEdge,
        |       st_in_box(5.0, 51.0, 4.0, 5.0, 50.0, 51.0) AS hiEdge,
        |       st_in_box(5.0001, 50.5, 4.0, 5.0, 50.0, 51.0) AS outside""".stripMargin).head()
    assert(r.getBoolean(0) && r.getBoolean(1) && r.getBoolean(2) && !r.getBoolean(3))
  }

  test("st_in_stbox adds the temporal dimension") {
    val r = spark.sql(
      """SELECT st_in_stbox(4.5, 50.5, 1500, 4.0, 5.0, 50.0, 51.0, 1000, 2000) AS a,
        |       st_in_stbox(4.5, 50.5, 2001, 4.0, 5.0, 50.0, 51.0, 1000, 2000) AS b,
        |       st_in_stbox(5.5, 50.5, 1500, 4.0, 5.0, 50.0, 51.0, 1000, 2000) AS c""".stripMargin).head()
    assert(r.getBoolean(0) && !r.getBoolean(1) && !r.getBoolean(2))
  }

  test("st_point_in_poly against the Scala ray caster") {
    val r = spark.sql(
      """SELECT st_point_in_poly(0.5, 0.5, array(0.0D, 0.0D, 1.0D, 0.0D, 1.0D, 1.0D, 0.0D, 1.0D)) AS a,
        |       st_point_in_poly(1.5, 0.5, array(0.0D, 0.0D, 1.0D, 0.0D, 1.0D, 1.0D, 0.0D, 1.0D)) AS b,
        |       st_point_in_poly(1.0, 0.5, array(0.0D, 0.0D, 2.0D, 0.0D, 1.0D, 2.0D)) AS c""".stripMargin).head()
    assert(r.getBoolean(0) && !r.getBoolean(1) && r.getBoolean(2))
  }

  test("st_point_in_poly: generated code agrees with interpreted eval and the ray caster") {
    import spark.implicits._
    val rings = Seq(
      Seq(0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0),
      Seq(0.0, 0.0, 2.0, 0.0, 1.0, 2.0),
      Seq(0.0, 0.0, 2.0, 0.0, 2.0, 1.0, 1.0, 1.0, 1.0, 2.0, 0.0, 2.0))
    val pts = for (i <- 0 to 12; j <- 0 to 12) yield (-0.25 + i * 0.21, -0.25 + j * 0.21)
    val input = (for ((ring, r) <- rings.zipWithIndex; ((x, y), p) <- pts.zipWithIndex)
        yield (r * 1000 + p, Option(x), y, ring)).toDF("id", "lon", "lat", "ring")
      .union(Seq((-1, Option.empty[Double], 0.5, rings.head)).toDF("id", "lon", "lat", "ring"))
      .repartition(2) // else the optimizer evaluates the local rows itself, interpreted
    def run(mode: String) = withCodegen(mode) {
      input.selectExpr("id", "st_point_in_poly(lon, lat, ring) AS inside")
        .collect().map(r => r.getInt(0) -> Option(r.get(1))).toMap
    }
    val expected = (for ((ring, r) <- rings.zipWithIndex; ((x, y), p) <- pts.zipWithIndex)
      yield (r * 1000 + p) -> Option(Geo.pointInPolygon(x, y, ring.toArray))).toMap + (-1 -> None)
    assert(expected.values.count(_.contains(true)) > 0)
    assert(run("CODEGEN_ONLY") == expected)
    assert(run("NO_CODEGEN") == expected)
  }

  test("expressions propagate nulls") {
    val r = spark.sql(
      """SELECT st_distance(CAST(NULL AS DOUBLE), 50.0, 4.0, 50.0) AS a,
        |       ed_within(4.0, 50.0, 4.0, CAST(NULL AS DOUBLE), 10.0) AS b,
        |       st_in_box(CAST(NULL AS DOUBLE), 50.0, 4.0, 5.0, 50.0, 51.0) AS c""".stripMargin).head()
    assert(r.isNullAt(0) && r.isNullAt(1) && r.isNullAt(2))
  }

  test("expressions work as join and filter predicates") {
    import spark.implicits._
    val points = Seq((1, 4.2, 50.6), (2, 4.6, 50.9), (3, 4.9, 50.2)).toDF("pid", "lon", "lat")
    val boxes = Seq((10, 4.0, 4.4, 50.5, 50.7), (20, 4.5, 5.0, 50.8, 51.0))
      .toDF("bid", "xmin", "xmax", "ymin", "ymax")
    val joined = points.join(boxes, expr("st_in_box(lon, lat, xmin, xmax, ymin, ymax)"))
      .select("pid", "bid").collect().map(r => (r.getInt(0), r.getInt(1))).toSet
    assert(joined == Set((1, 10), (2, 20)))
  }

  // --- trajectory (sequence) UDFs -----------------------------------

  private lazy val trajDf = {
    import spark.implicits._
    // Two trajectories: g=1 eastward run, g=2 a stationary point.
    val rows = (0 to 10).map(i => (1, i * 1000L, 4.0 + i * 0.001, 50.8)) ++
      Seq((2, 0L, 4.5, 50.5), (2, 5000L, 4.5, 50.5))
    rows.toDF("g", "ts_ms", "lon", "lat")
  }

  private lazy val trajAgg = trajDf.groupBy("g")
    .agg(MeosFunctions.tpointSeq(col("ts_ms"), col("lon"), col("lat")).as("traj"))
    .cache()

  private def refSeq(g: Int): TSeq = TSeq.of(
    trajDf.where(col("g") === g).collect()
      .map(r => (r.getLong(1), r.getDouble(2), r.getDouble(3))))

  test("tpoint_length matches the TSeq reference") {
    val out = trajAgg.selectExpr("g", "tpoint_length(traj) AS len")
      .collect().map(r => r.getInt(0) -> r.getDouble(1)).toMap
    assert(math.abs(out(1) - refSeq(1).lengthMeters) < 1e-9)
    assert(out(2) == 0.0)
  }

  test("tpoint_duration_s and tpoint_num_instants") {
    val out = trajAgg.selectExpr("g", "tpoint_duration_s(traj) AS d",
        "tpoint_num_instants(traj) AS n")
      .collect().map(r => r.getInt(0) -> ((r.getDouble(1), r.getInt(2)))).toMap
    assert(out(1) == ((10.0, 11)))
    assert(out(2) == ((5.0, 2)))
  }

  test("tpoint_avg_speed matches length/duration") {
    val r = trajAgg.where(col("g") === 1)
      .selectExpr("tpoint_avg_speed(traj) AS v").head().getDouble(0)
    assert(math.abs(r - refSeq(1).avgSpeedMps) < 1e-9)
  }

  test("tpoint_min_dist and tpoint_edwithin agree with the reference") {
    val ref = refSeq(1).minDistMeters(4.005, 50.801)
    val r = trajAgg.where(col("g") === 1)
      .selectExpr("tpoint_min_dist(traj, 4.005, 50.801) AS d",
        s"tpoint_edwithin(traj, 4.005, 50.801, ${ref + 1.0}) AS within",
        s"tpoint_edwithin(traj, 4.005, 50.801, ${ref - 1.0}) AS notWithin").head()
    assert(math.abs(r.getDouble(0) - ref) < 1e-9)
    assert(r.getBoolean(1) && !r.getBoolean(2))
  }

  test("tpoint_at_stbox clips like TSeq.atStbox") {
    val box = STBox(4.0045, 4.0085, 50.0, 51.0, 0L, 100000L)
    val expected = refSeq(1).atStbox(box)
    val got = trajAgg.where(col("g") === 1)
      .selectExpr(s"tpoint_at_stbox(traj, ${box.xmin}, ${box.xmax}, ${box.ymin}, ${box.ymax}, ${box.tmin}, ${box.tmax}) AS c")
      .head().getSeq[scala.collection.Seq[scala.collection.Seq[Double]]](0)
    assert(got.length == expected.length)
    got.zip(expected).foreach { case (piece, exp) =>
      assert(piece.length == exp.insts.length)
      piece.zip(exp.insts).foreach { case (p, i) =>
        assert(p(0).toLong == i.t)
        assert(math.abs(p(1) - i.lon) < 1e-12)
        assert(math.abs(p(2) - i.lat) < 1e-12)
      }
    }
  }

  test("tpoint_ever_at_stbox consistent with clipping") {
    val r = trajAgg.where(col("g") === 1).selectExpr(
      "tpoint_ever_at_stbox(traj, 4.0045, 4.0085, 50.0, 51.0, 0, 100000) AS hit",
      "tpoint_ever_at_stbox(traj, 6.0, 7.0, 50.0, 51.0, 0, 100000) AS miss").head()
    assert(r.getBoolean(0) && !r.getBoolean(1))
  }

  test("sequence UDFs tolerate empty trajectories") {
    val r = spark.sql(
      """SELECT tpoint_length(CAST(array() AS ARRAY<ARRAY<DOUBLE>>)) AS a,
        |       tpoint_num_instants(CAST(array() AS ARRAY<ARRAY<DOUBLE>>)) AS b,
        |       tpoint_edwithin(CAST(array() AS ARRAY<ARRAY<DOUBLE>>), 4.0, 50.0, 1000.0) AS c""".stripMargin).head()
    assert(r.getDouble(0) == 0.0 && r.getInt(1) == 0 && !r.getBoolean(2))
  }

  test("registerAll is idempotent") {
    NebulaMeos.setup(spark); NebulaMeos.setup(spark)
    assert(spark.sql("SELECT st_distance(4.0, 50.0, 4.1, 50.0) AS d").head().getDouble(0) > 0)
  }
}
