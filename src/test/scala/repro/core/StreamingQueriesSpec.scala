package repro.core

import org.apache.spark.sql.{DataFrame, Dataset}
import org.apache.spark.sql.execution.MapElementsExec
import org.apache.spark.sql.execution.streaming.operators.stateful.flatmapgroupswithstate.FlatMapGroupsWithStateExec
import org.apache.spark.sql.execution.streaming.runtime.{MemoryStream, StreamingQueryWrapper}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.streaming.OutputMode
import org.apache.spark.sql.types.DoubleType

import repro.{RowCompare, SparkSpec, TestData}
import repro.bench.Harness
import repro.sncb.RailNetwork
import repro.stream.StreamRunner

/** Every query's plan must produce the same rows on a stream as on
  * batch input when the SF=0.002 stream is replayed through a
  * MemoryStream in time-ordered micro-batches. Q7 and Q8b compare the
  * windows closed before the stream ends.
  */
class StreamingQueriesSpec extends SparkSpec {

  private lazy val sp = spark
  import sp.implicits._

  private lazy val ev = TestData.events002
  private lazy val zones = TestData.zones

  private lazy val chunks = Harness.toChunks(ev, 3000)

  private def runStream(q: DataFrame => DataFrame, mode: OutputMode, name: String,
                        input: Seq[Seq[SensorEvent]] = chunks, partitions: Int = 1): DataFrame =
    StreamRunner.runCollect[SensorEvent](spark, input,
      (ds: Dataset[SensorEvent]) => q(ds.toDF()), mode, name, partitions)

  test("toChunks fails on a null lon and names the field") {
    assert(Harness.toChunks(ev.limit(3), 2).map(_.size) == Seq(2, 1))
    val nullLon = ev.limit(3).union(ev.limit(1).withColumn("lon", lit(null).cast(DoubleType)))
    val e = intercept[IllegalArgumentException](Harness.toChunks(nullLon, 2))
    assert(e.getMessage.startsWith("toChunks: lon is null"), e.getMessage)
  }

  test("Q1 streaming equals batch") {
    val got = runStream(Geofencing.alertFiltering(_, zones), OutputMode.Append(), "sq1")
    RowCompare.assertSameRows(got, Geofencing.alertFiltering(ev, zones))
  }

  test("Q2 streaming equals batch") {
    val got = runStream(Geofencing.noiseMonitoring(_, zones), OutputMode.Complete(), "sq2")
    RowCompare.assertSameRows(got, Geofencing.noiseMonitoring(ev, zones))
  }

  test("Q3 streaming equals batch") {
    val got = runStream(Geofencing.dynamicSpeedLimit(_, zones), OutputMode.Append(), "sq3")
    RowCompare.assertSameRows(got, Geofencing.dynamicSpeedLimit(ev, zones))
  }

  test("Q1-Q3 streaming equal the naive baselines at 26 + 2,000 zones") {
    // Ten whole minutes of all six trains: every Q2 window is complete.
    val slice = ev.where(col("seq") < 600).cache()
    val big = RailNetwork.toDf(spark, RailNetwork.all ++ RailNetwork.syntheticZones(2000)).cache()
    val input = Harness.toChunks(slice, 3000)
    Seq[(String, (DataFrame, DataFrame) => DataFrame, (DataFrame, DataFrame) => DataFrame,
        OutputMode)](
      ("sz1", Geofencing.alertFiltering, Baselines.alertFiltering, OutputMode.Append()),
      ("sz2", Geofencing.noiseMonitoring(_, _), Baselines.noiseMonitoring(_, _),
        OutputMode.Complete()),
      ("sz3", Geofencing.dynamicSpeedLimit, Baselines.dynamicSpeedLimit, OutputMode.Append())
    ).foreach { case (name, query, baseline, mode) =>
      val want = baseline(slice, big)
      assert(want.count() > 0, s"$name: the baseline found nothing to compare")
      RowCompare.assertSameRows(runStream(query(_, big), mode, name, input), want)
    }
  }

  test("Q4 streaming equals batch") {
    val got = runStream(Geofencing.weatherSpeedZones(_, TestData.weather),
      OutputMode.Append(), "sq4")
    RowCompare.assertSameRows(got, Geofencing.weatherSpeedZones(ev, TestData.weather))
  }

  test("Q5 streaming equals batch") {
    val got = runStream(Gcep.batteryMonitoring(_, zones), OutputMode.Complete(), "sq5")
    RowCompare.assertSameRows(got, Gcep.batteryMonitoring(ev, zones))
  }

  test("Q6 streaming equals batch") {
    val got = runStream(Gcep.heavyPassengerLoad(_), OutputMode.Complete(), "sq6")
    RowCompare.assertSameRows(got, Gcep.heavyPassengerLoad(ev))
  }

  /** Threshold windows still open at the end of the stream: batch
    * reports them, a stream keeps them open. Compare closed ones only.
    */
  private lazy val lastTs = ev.agg(max("ts_ms")).head().getLong(0)

  test("Q7 streaming equals batch (closed windows)") {
    val got = runStream(Gcep.unscheduledStops(_, zones), OutputMode.Append(), "sq7")
    RowCompare.assertSameRows(got, Gcep.unscheduledStops(ev, zones).where(col("endMs") < lastTs))
  }

  test("Q7 and Q8b streaming equal batch at NaN and infinite positions (closed windows)") {
    // A stream event's lon is a primitive double: a null lon becomes NaN.
    val bad = TestData.badPositions002
      .withColumn("lon", coalesce(col("lon"), lit(Double.NaN))).cache()
    val input = Harness.toChunks(bad, 3000)
    Seq[(String, DataFrame => DataFrame)](
      ("sbad7", Gcep.unscheduledStops(_, zones)), ("sbad8b", Gcep.persistentLowPressure(_))
    ).foreach { case (name, q) =>
      val want = q(bad).where(col("endMs") < lastTs).cache()
      assert(want.where(col("cLon").isNull).count() > 0, s"$name: no window without a centroid")
      RowCompare.assertSameRows(runStream(q, OutputMode.Append(), name, input), want)
    }
  }

  test("Q8a streaming equals batch") {
    val got = runStream(Gcep.brakePatterns(_), OutputMode.Complete(), "sq8a")
    RowCompare.assertSameRows(got, Gcep.brakePatterns(ev))
  }

  test("Q8b streaming equals batch (closed windows)") {
    val got = runStream(Gcep.persistentLowPressure(_), OutputMode.Append(), "sq8b")
    RowCompare.assertSameRows(got, Gcep.persistentLowPressure(ev).where(col("endMs") < lastTs))
  }

  test("Q7 and Q8b on a stream run one flatMapGroupsWithState and no typed map") {
    implicit val sqlCtx: org.apache.spark.sql.SQLContext = spark.sqlContext
    for ((name, q) <- Seq[(String, DataFrame => DataFrame)](
        ("pin7", Gcep.unscheduledStops(_, zones)), ("pin8b", Gcep.persistentLowPressure(_)))) {
      val source = MemoryStream[SensorEvent]
      val query = q(source.toDF())
        .writeStream.format("memory").queryName(name).outputMode(OutputMode.Append()).start()
      try {
        source.addData(chunks.head)
        query.processAllAvailable()
        val plan = query.asInstanceOf[StreamingQueryWrapper].streamingQuery.lastExecution.executedPlan
        val nodes = plan.collect { case n => n }
        assert(nodes.count(_.isInstanceOf[FlatMapGroupsWithStateExec]) == 1, plan)
        assert(!nodes.exists(_.isInstanceOf[MapElementsExec]), plan)
      } finally query.stop()
    }
  }

  /** `a` and `b` hold the same rows: columns other than doubles (keys
    * and counts) agree exactly, doubles within 1e-9 relative. Sums over
    * several source partitions may add in another order than batch.
    */
  private def assertCloseRows(a: DataFrame, b: DataFrame): Unit = {
    val cols = b.columns.sorted.toSeq
    val isDouble = b.select(cols.map(col): _*).schema.map(_.dataType == DoubleType)
    def rows(df: DataFrame): Seq[(String, Seq[Any])] =
      df.select(cols.map(col): _*).collect().toSeq.map { r =>
        val exact = cols.indices.filterNot(isDouble).map(i => String.valueOf(r.get(i)))
        (exact.mkString("|"), cols.indices.filter(isDouble).map(r.get))
      }.sortBy(_._1)
    def close(x: Any, y: Any): Boolean = (x, y) match {
      case (x: Double, y: Double) =>
        x == y || (x.isNaN && y.isNaN) || math.abs(x - y) <= 1e-9 * math.max(math.abs(x), math.abs(y))
      case _ => x == y
    }
    val (ra, rb) = (rows(a), rows(b))
    assert(ra.map(_._1) == rb.map(_._1), s"keys or counts differ (${ra.size} vs ${rb.size} rows)")
    ra.zip(rb).foreach { case ((k, da), (_, db)) =>
      assert(da.zip(db).forall { case (x, y) => close(x, y) }, s"row $k: $da vs $db")
    }
  }

  test("Q2, Q5, Q6 and Q8a over a four-partition source equal batch") {
    val parts = runStream(_.select(spark_partition_id().as("p")), OutputMode.Append(), "mp_parts",
      partitions = 4)
    assert(parts.distinct().count() == 4, "the source did not split its chunks")
    Seq[(String, OutputMode, DataFrame => DataFrame, DataFrame)](
      ("mp2", OutputMode.Complete(), Geofencing.noiseMonitoring(_, zones),
        Geofencing.noiseMonitoring(ev, zones)),
      ("mp5", OutputMode.Complete(), Gcep.batteryMonitoring(_, zones),
        Gcep.batteryMonitoring(ev, zones)),
      ("mp6", OutputMode.Complete(), Gcep.heavyPassengerLoad(_), Gcep.heavyPassengerLoad(ev)),
      ("mp8a", OutputMode.Complete(), Gcep.brakePatterns(_), Gcep.brakePatterns(ev))
    ).foreach { case (name, mode, q, batch) =>
      val want = batch.cache()
      assert(want.count() > 0, s"$name: batch found nothing to compare")
      assertCloseRows(runStream(q, mode, name, partitions = 4), want)
    }
  }

  test("Q7 and Q8b over a four-partition source equal batch (closed windows)") {
    Seq[(String, DataFrame => DataFrame, DataFrame)](
      ("mp7", Gcep.unscheduledStops(_, zones), Gcep.unscheduledStops(ev, zones)),
      ("mp8b", Gcep.persistentLowPressure(_), Gcep.persistentLowPressure(ev))
    ).foreach { case (name, q, batch) =>
      val want = batch.where(col("endMs") < lastTs).cache()
      assert(want.count() > 0, s"$name: batch found nothing to compare")
      assertCloseRows(runStream(q, OutputMode.Append(), name, partitions = 4), want)
    }
  }
}
