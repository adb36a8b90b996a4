package repro.meos

import org.apache.spark.sql.{AnalysisException, Row}
import org.apache.spark.sql.catalyst.expressions.ScalaUDF
import org.apache.spark.sql.execution.{InputAdapter, SparkPlan, WholeStageCodegenExec}
import org.apache.spark.sql.execution.columnar.InMemoryTableScanExec
import org.apache.spark.sql.functions._

import repro.{RowCompare, SparkSpec, TestData}
import repro.core.{Gcep, Geofencing, NebulaMeos}
import repro.meos.expressions.StZones
import repro.sncb.RailNetwork

class ZoneIndexSpec extends SparkSpec {

  override def beforeAll(): Unit = { super.beforeAll(); NebulaMeos.setup(spark) }

  test("cellId is consistent with cellIdCol") {
    import spark.implicits._
    val pts = Seq((4.123, 50.789), (4.0, 50.5), (4.899, 51.099)).toDF("lon", "lat")
    val got = pts.select(ZoneIndex.cellIdCol).collect().map(_.getLong(0)).toSeq
    val exp = Seq((4.123, 50.789), (4.0, 50.5), (4.899, 51.099))
      .map(p => ZoneIndex.cellId(p._1, p._2))
    assert(got == exp)
  }

  test("cellsOf covers every point of the zone") {
    RailNetwork.all.foreach { z =>
      val cells = ZoneIndex.cellsOf(z).toSet
      // Sample a grid of points inside the zone; each must map to a cell
      // in the zone's cell list.
      for (i <- 0 to 4; j <- 0 to 4) {
        val lon = z.xmin + (z.xmax - z.xmin) * i / 4.0
        val lat = z.ymin + (z.ymax - z.ymin) * j / 4.0
        assert(cells.contains(ZoneIndex.cellId(lon, lat)),
          s"zone ${z.zoneId}: ($lon, $lat) outside its cell cover")
      }
    }
  }

  test("cellsOf is minimal-ish: no more cells than the rectangle spans") {
    RailNetwork.all.foreach { z =>
      val nx = ((z.xmax - z.xmin) / ZoneIndex.CellLon).toInt + 2
      val ny = ((z.ymax - z.ymin) / ZoneIndex.CellLat).toInt + 2
      assert(ZoneIndex.cellsOf(z).size <= nx * ny)
    }
  }

  test("indexDf has one row per (cell, zone)") {
    val zones = RailNetwork.all
    val df = ZoneIndex.indexDf(spark, zones)
    assert(df.count() == zones.map(z => ZoneIndex.cellsOf(z).size.toLong).sum)
    assert(df.select("cell_id", "zone_id").distinct().count() == df.count())
  }

  test("indexed join equals the direct containment join (base catalogue)") {
    val ev = TestData.events002
    val zones = RailNetwork.all
    val idx = ZoneIndex.indexDf(spark, zones)
    val viaIndex = ZoneIndex.join(ev, idx)
      .select("id", "zone_id")
    val direct = ev.join(RailNetwork.toDf(spark, zones),
        expr("st_in_box(lon, lat, xmin, xmax, ymin, ymax)"))
      .select("id", "zone_id")
    assert(viaIndex.count() == direct.count())
    assert(viaIndex.except(direct).count() == 0)
    assert(direct.except(viaIndex).count() == 0)
  }

  test("indexed join equals the direct join on the enlarged catalogue") {
    val ev = TestData.events002.limit(2000)
    val zones = RailNetwork.syntheticZones(200)
    val idx = ZoneIndex.indexDf(spark, zones)
    val viaIndex = ZoneIndex.join(ev, idx).select("id", "zone_id")
    val direct = ev.join(RailNetwork.toDf(spark, zones),
        expr("st_in_box(lon, lat, xmin, xmax, ymin, ymax)"))
      .select("id", "zone_id")
    assert(viaIndex.except(direct).count() == 0)
    assert(direct.except(viaIndex).count() == 0)
  }

  test("zonesAt equals the direct containment join, edges, corners, off-frame and NaN included") {
    import spark.implicits._
    val zones = RailNetwork.all ++ RailNetwork.syntheticZones(200)
    val onEdges = zones.flatMap(z => Seq((z.xmin, z.ymin), (z.xmax, z.ymax),
      (z.xmin, z.ymax), (z.xmax, z.ymin), (z.xmin, z.cLat), (z.cLon, z.ymax)))
    val odd = Seq((3.5, 50.0), (5.5, 51.5), (-180.0, -90.0), (1e12, -1e12),
      (Double.PositiveInfinity, 50.8), (RailNetwork.LonMin, RailNetwork.LatMin),
      (RailNetwork.LonMax, RailNetwork.LatMax), (Double.NaN, 50.8), (4.45, Double.NaN),
      (Double.NaN, Double.NaN))
    val pts = TestData.events002.select("id", "lon", "lat")
      .union((onEdges ++ odd).zipWithIndex
        .map { case ((lon, lat), i) => (1000000000L + i, lon, lat) }.toDF("id", "lon", "lat"))
    // A new plan per call, so each codegen mode below plans it afresh.
    def viaLookup = pts
      .select(col("id"), explode(ZoneIndex.zonesAt(zones, col("lon"), col("lat"))).as("z"))
      .select(col("id"), col("z.zone_id"), col("z.lim"))
    val direct = pts.crossJoin(RailNetwork.toDf(spark, zones))
      .where(expr("st_in_box(lon, lat, xmin, xmax, ymin, ymax)"))
      .select("id", "zone_id", "lim")
    assert(direct.where(col("id") >= 1000000000L).count() >= onEdges.size)
    Seq("CODEGEN_ONLY", "NO_CODEGEN")
      .foreach(withCodegen(_)(RowCompare.assertSameRows(viaLookup, direct)))
  }

  test("st_zones: null lon or lat gives null, an empty catalogue empty arrays") {
    import spark.implicits._
    // Repartitioned: the optimizer evaluates a projection of local rows
    // itself, interpreted, whatever the codegen mode.
    val pts = Seq((0, Some(4.45), Some(50.8)), (1, None, Some(50.8)), (2, Some(4.45), None),
      (3, None, None)).toDF("id", "lon", "lat").repartition(2)
    val zone = RailNetwork.all.head
    Seq("CODEGEN_ONLY", "NO_CODEGEN").foreach { mode => withCodegen(mode) {
      val got = pts.select(
          ZoneIndex.zonesAt(Seq(zone), col("lon"), col("lat")).as("some"),
          ZoneIndex.zonesAt(Seq.empty, col("lon"), col("lat")).as("none"),
          ZoneIndex.zonesAt(Seq(zone), lit(zone.cLon), lit(zone.cLat)).as("hit"), col("id"))
        .orderBy("id").collect()
      assert(got.head.getSeq[Row](0).isEmpty && got.head.getSeq[Row](1).isEmpty, mode)
      assert(got.tail.forall(r => r.isNullAt(0) && r.isNullAt(1)), mode)
      assert(got.forall(_.getSeq[Row](2) == Seq(Row(zone.zoneId, zone.limit))), mode)
    } }
  }

  test("st_zones rejects a catalogue that is not a constant") {
    val cat = spark.range(1).select(array(struct(col("id").cast("int").as("zone_id"),
      lit(4.0).as("xmin"), lit(4.9).as("xmax"), lit(50.5).as("ymin"), lit(51.1).as("ymax"),
      lit(80.0).as("lim"))).as("cat"))
    val e = intercept[AnalysisException](cat.selectExpr("st_zones(4.4, 50.8, cat)"))
    assert(e.getMessage.contains("must be a constant"), e.getMessage)
  }

  test("Q1-Q3 and Q7 look zones up with st_zones inside whole-stage codegen, no ScalaUDF") {
    val ev = TestData.events002
    val zones = TestData.zones
    Seq(Geofencing.alertFiltering(ev, zones), Geofencing.noiseMonitoring(ev, zones),
        Geofencing.dynamicSpeedLimit(ev, zones), Gcep.unscheduledStops(ev, zones)).foreach { q =>
      val optimized = q.queryExecution.optimizedPlan
      assert(optimized.flatMap(_.expressions.flatMap(_.collect { case u: ScalaUDF => u }))
        .isEmpty, optimized)
      // The cached input's scan carries the lookup only as a batch-pruning
      // hint; every node that evaluates it must be in a compiled stage.
      val nodes = executedNodes(q)
      def stage(p: SparkPlan): Seq[SparkPlan] = p match {
        case _: InputAdapter => Nil
        case _ => p +: p.children.flatMap(stage)
      }
      val compiled = nodes.collect { case w: WholeStageCodegenExec => stage(w.child) }.flatten
      val lookups = nodes.filter(_.expressions.exists(_.exists(_.isInstanceOf[StZones])))
      assert(!nodes.exists(_.expressions.exists(_.exists(_.isInstanceOf[ScalaUDF]))), nodes)
      assert(lookups.exists(compiled.contains), nodes)
      assert(lookups.filterNot(compiled.contains).forall(_.isInstanceOf[InMemoryTableScanExec]),
        nodes)
    }
  }

  test("syntheticZones is deterministic and well-formed") {
    val a = RailNetwork.syntheticZones(100)
    val b = RailNetwork.syntheticZones(100)
    assert(a == b)
    assert(a.map(_.zoneId).distinct.size == 100)
    assert(a.forall(z => z.xmin < z.xmax && z.ymin < z.ymax))
    val kinds = a.map(_.kind).toSet
    assert(kinds == Set("maintenance", "curve", "neighbourhood"))
  }

  test("synthetic zones are actually visited by the trains") {
    val ev = TestData.events01
    val idx = ZoneIndex.indexDf(spark, RailNetwork.syntheticZones(100))
    assert(ZoneIndex.join(ev, idx).count() > 0)
  }
}
