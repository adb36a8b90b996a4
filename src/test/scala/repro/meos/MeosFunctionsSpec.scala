package repro.meos

import org.apache.spark.sql.AnalysisException
import org.apache.spark.sql.catalyst.expressions.codegen.CodegenFallback
import org.apache.spark.sql.catalyst.expressions.objects.StaticInvoke
import org.apache.spark.sql.execution.{InputAdapter, SparkPlan, WholeStageCodegenExec}
import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec}
import repro.core.NebulaMeos

class MeosFunctionsSpec extends SparkSpec {

  override def beforeAll(): Unit = { super.beforeAll(); NebulaMeos.setup(spark) }

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
        |       st_point_in_poly(1.0, 0.5, array(0.0D, 0.0D, 2.0D, 0.0D, 1.0D, 2.0D)) AS c,
        |       st_point_in_poly(1, 1, array(0, 0, 2, 0, 1, 2)) AS d,
        |       st_point_in_poly(1.5, 0.5, array(0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0)) AS e""".stripMargin).head()
    assert(r.getBoolean(0) && !r.getBoolean(1) && r.getBoolean(2) && r.getBoolean(3) && !r.getBoolean(4))
  }

  test("MEOS scalars: generated code agrees with interpreted eval and Geo") {
    import spark.implicits._
    val special = Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)
    val xs = Seq(3.9, 4.0, 4.5, 5.0, 5.1) // outside, edge, inside, edge, outside of [4, 5]
    val ys = Seq(49.9, 50.0, 50.5, 51.0, 51.1)
    val box = Seq(4.0, 5.0, 50.0, 51.0)
    val square = Seq(4.0, 50.0, 5.0, 50.0, 5.0, 51.0, 4.0, 51.0)
    val notched = Seq(4.0, 50.0, 5.0, 50.0, 5.0, 50.5, 4.5, 50.5, 4.5, 51.0, 4.0, 51.0)
    val noRing = Seq(Option(Seq.empty[Double]))
    case class Case(fn: String, base: Seq[Seq[Double]], rings: Seq[Option[Seq[Double]]],
                    geo: (Seq[Double], Seq[Double]) => Any)
    val cases = Seq(
      Case("st_in_box", for (x <- xs; y <- ys) yield Seq(x, y) ++ box, noRing,
        (a, _) => Geo.inBox(a(0), a(1), a(2), a(3), a(4), a(5))),
      Case("st_in_stbox", for (x <- xs; y <- ys; t <- Seq(999.0, 1000.0, 1500.0, 2000.0, 2001.0))
          yield Seq(x, y, t) ++ box ++ Seq(1000.0, 2000.0), noRing,
        (a, _) => Geo.inStbox(a(0), a(1), a(2), a(3), a(4), a(5), a(6), a(7), a(8))),
      Case("st_distance", for (x <- xs; y <- ys) yield Seq(4.5, 50.5, x, y), noRing,
        (a, _) => Geo.distMeters(a(0), a(1), a(2), a(3))),
      Case("ed_within", for (x <- xs; y <- ys; d <- Seq(0.0, 60000.0, Geo.distMeters(4.5, 50.5, x, y)))
          yield Seq(4.5, 50.5, x, y, d), noRing,
        (a, _) => Geo.dWithin(a(0), a(1), a(2), a(3), a(4))),
      Case("st_point_in_poly", for (x <- xs; y <- ys) yield Seq(x, y),
        Seq(Some(square), Some(notched), Some(square.updated(2, Double.NaN)),
          Some(square.updated(5, Double.PositiveInfinity)), None),
        (a, ring) => Geo.pointInPolygon(a(0), a(1), ring.toArray)))
    // Each base row as is, with a null and with NaN or ±Infinity in each position.
    def variants(a: Seq[Double]): Seq[Seq[Option[Double]]] = {
      val some = a.map(Option(_))
      some +: a.indices.flatMap(i => (None +: special.map(Option(_))).map(some.updated(i, _)))
    }
    val rows = (for ((c, k) <- cases.zipWithIndex; a <- c.base; args <- variants(a); ring <- c.rings)
      yield (k, args, ring)).zipWithIndex
    val input = rows.map { case ((k, args, ring), id) => (id, k, args, ring) }
      .toDF("id", "fn", "a", "ring")
      .repartition(2) // else the optimizer evaluates the local rows itself, interpreted
    def bits(v: Any): Any = v match {
      case d: Double => java.lang.Double.doubleToLongBits(d) // NaN equals NaN
      case x => x
    }
    def run(mode: String) = withCodegen(mode) {
      cases.zipWithIndex.flatMap { case (c, k) =>
        val operands = c.base.head.indices.map(i => s"a[$i]") ++
          (if (c.fn == "st_point_in_poly") Seq("ring") else Nil)
        input.where($"fn" === k).selectExpr("id", s"${c.fn}(${operands.mkString(", ")}) AS r")
          .collect().map(r => r.getInt(0) -> Option(r.get(1)).map(bits))
      }.toMap
    }
    val expected = rows.map { case ((k, args, ring), id) =>
      id -> (if (args.contains(None) || ring.isEmpty) None
             else Some(bits(cases(k).geo(args.flatten, ring.get))))
    }.toMap
    for ((c, k) <- cases.zipWithIndex if c.fn != "st_distance") {
      val answers = rows.collect { case ((`k`, _, _), id) => expected(id) }.toSet
      assert(answers == Set(Some(true), Some(false), None), c.fn)
    }
    assert(run("CODEGEN_ONLY") == expected)
    assert(run("NO_CODEGEN") == expected)
  }

  test("MEOS scalars compile inside whole-stage codegen, no CodegenFallback") {
    val calls = Seq("st_in_box(lon, lat, 4.3, 4.6, 50.7, 50.9)",
      "st_in_stbox(lon, lat, ts, 4.3, 4.6, 50.7, 50.9, 0, 500000)",
      "st_distance(lon, lat, 4.45, 50.8) < 20000",
      "ed_within(lon, lat, 4.45, 50.8, 20000)",
      "st_point_in_poly(lon, lat, array(4.3, 50.7, 4.6, 50.7, 4.6, 50.9, 4.3, 50.9))")
    val input = spark.range(1000).selectExpr("4.0D + id / 1000.0D AS lon",
      "50.5D + id / 2500.0D AS lat", "id * 1000 AS ts")
    def stage(p: SparkPlan): Seq[SparkPlan] = p match {
      case _: InputAdapter => Nil
      case _ => p +: p.children.flatMap(stage)
    }
    def geoCalls(plans: Seq[SparkPlan]): Seq[String] = plans.flatMap(_.expressions.flatMap(_.collect {
      case s: StaticInvoke if s.staticObject == Geo.getClass => s.functionName
    })).sorted
    Seq(input.selectExpr(calls: _*), input.where(calls.mkString(" OR "))).foreach { df =>
      val nodes = executedNodes(df)
      val compiled = nodes.collect { case w: WholeStageCodegenExec => stage(w.child) }.flatten
      assert(!nodes.exists(_.expressions.exists(_.exists(_.isInstanceOf[CodegenFallback]))), nodes)
      assert(geoCalls(compiled) == Seq("dWithin", "distMeters", "inBox", "inStbox", "pointInPolygon"),
        nodes)
      assert(geoCalls(nodes) == geoCalls(compiled), nodes)
    }
  }

  test("MEOS scalars reject string, timestamp, date and boolean operands at analysis") {
    Seq(
      "st_in_box('4.5', 50.5, 4.0, 5.0, 50.0, 51.0)",
      "st_in_stbox(4.5, 50.5, TIMESTAMP '2026-01-01 00:00:00', 4.0, 5.0, 50.0, 51.0, 0, 2000)",
      "st_distance(4.5, 50.5, DATE '2026-01-01', 50.5)",
      "ed_within(4.5, 50.5, 4.5, 50.5, true)",
      "st_point_in_poly(0.5, 0.5, array('0', '0', '1', '0', '1', '1'))"
    ).foreach { call =>
      val e = intercept[AnalysisException](spark.sql(s"SELECT $call").collect())
      assert(e.getCondition == "DATATYPE_MISMATCH.UNEXPECTED_INPUT_TYPE", call)
    }
  }

  test("expressions propagate nulls") {
    val r = spark.sql(
      """SELECT st_distance(CAST(NULL AS DOUBLE), 50.0, 4.0, 50.0) AS a,
        |       ed_within(4.0, 50.0, 4.0, CAST(NULL AS DOUBLE), 10.0) AS b,
        |       st_in_box(CAST(NULL AS DOUBLE), 50.0, 4.0, 5.0, 50.0, 51.0) AS c,
        |       st_in_stbox(4.5, 50.5, NULL, 4.0, 5.0, 50.0, 51.0, 1000, 2000) AS d,
        |       st_point_in_poly(0.5, 0.5, NULL) AS e""".stripMargin).head()
    assert((0 to 4).forall(r.isNullAt))
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

  test("registerAll is idempotent") {
    NebulaMeos.setup(spark); NebulaMeos.setup(spark)
    assert(spark.sql("SELECT st_distance(4.0, 50.0, 4.1, 50.0) AS d").head().getDouble(0) > 0)
    val names = spark.sessionState.functionRegistry.listFunction().map(_.funcName).toSet
    val meos = Set("st_distance", "ed_within", "st_in_box", "st_in_stbox", "st_point_in_poly", "st_zones")
    assert(meos.subsetOf(names), meos -- names)
    assert(!names.exists(_.startsWith("tpoint_")), names.filter(_.startsWith("tpoint_")))
    val e = intercept[AnalysisException](
      spark.sql("SELECT tpoint_length(CAST(array() AS ARRAY<ARRAY<DOUBLE>>))").collect())
    assert(e.getCondition == "UNRESOLVED_ROUTINE", e)
  }
}
