package repro.bench

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.streaming.OutputMode

import repro.core._
import repro.sncb.{RailNetwork, TrainData}
import repro.stream.StreamRunner

/** Benchmark harness behind Table 1 (per-query throughput) and Table 2
  * (MEOS-style pruning vs naive baseline). Used by the `bench/` test
  * suites and the `jobs/` spark-submit entrypoints.
  *
  * Throughput is measured two ways:
  *   - streaming: the SF-scaled stream is replayed through a
  *     MemoryStream into the query's Structured Streaming formulation,
  *     one micro-batch per chunk; events/s = total events / wall-clock
  *     to fully drain.
  *   - batch: wall-clock of the batch plan over the same events (the
  *     upper bound the paper's "ingestion rate" saturates to).
  * MB/s converts events/s with the per-query record sizes of
  * [[repro.core.NebulaMeos.RecordBytes]].
  */
object Harness {

  final case class QueryResult(query: String, events: Long, secs: Double,
                               outRows: Long, recordBytes: Int) {
    def eventsPerSec: Double = events / secs
    def mbPerSec: Double = eventsPerSec * recordBytes / 1e6
  }

  /** Generate + cache the SF-scaled inputs. */
  def inputs(spark: SparkSession, sf: Double): (DataFrame, DataFrame, DataFrame) = {
    NebulaMeos.setup(spark)
    val ev = TrainData.events(spark, sf).cache()
    ev.count()
    val zones = RailNetwork.zonesDf(spark).cache(); zones.count()
    val spanHours = (TrainData.NEventsPerSf * sf / RailNetwork.NumTrains / 3600.0).ceil.toInt + 1
    val weather = TrainData.weather(spark, spanHours).cache(); weather.count()
    (ev, zones, weather)
  }

  /** Collect the stream as time-ordered SensorEvent chunks. */
  def toChunks(ev: DataFrame, chunkSize: Int = 60000): Seq[Seq[SensorEvent]] =
    ev.orderBy("ts_ms", "train").collect().map { r =>
      SensorEvent(r.getAs[Long]("id"), r.getAs[Int]("train"), r.getAs[Long]("seq"),
        r.getAs[Long]("ts_ms"), r.getAs[Double]("lon"), r.getAs[Double]("lat"),
        r.getAs[Double]("speed_kmh"), r.getAs[Double]("battery_v"),
        r.getAs[Double]("temp_c"), r.getAs[Double]("brake_bar"),
        r.getAs[Double]("noise_db"), r.getAs[Int]("passengers"),
        Option(r.getAs[String]("alert_type")))
    }.toSeq.grouped(chunkSize).toSeq

  /** Wall-clock a batch plan (min of `iters` runs; output forced with
    * a noop write so no collect cost is included).
    */
  def timeBatch(df: => DataFrame, iters: Int = 2): Double = {
    var best = Double.MaxValue
    (1 to iters).foreach { _ =>
      val t0 = System.nanoTime()
      df.write.format("noop").mode("overwrite").save()
      best = math.min(best, (System.nanoTime() - t0) / 1e9)
    }
    best
  }

  /** The eight streaming formulations, keyed by query number: the
    * batch plans of [[Geofencing]]/[[Gcep]] where Structured Streaming
    * accepts them, [[Streaming]] for Q5 and Q7.
    */
  def streamingQueries(spark: SparkSession, weather: DataFrame)
      : Seq[(Int, String, (Dataset[SensorEvent] => DataFrame, OutputMode))] = {
    implicit val sp: SparkSession = spark
    val zones = RailNetwork.zonesDf(spark)
    Seq(
      (1, "Q1 alert filtering",
        ((ds: Dataset[SensorEvent]) => Geofencing.alertFiltering(ds.toDF(), zones),
          OutputMode.Append())),
      (2, "Q2 noise monitoring",
        ((ds: Dataset[SensorEvent]) => Geofencing.noiseMonitoring(ds.toDF(), zones),
          OutputMode.Complete())),
      (3, "Q3 dynamic speed limit",
        ((ds: Dataset[SensorEvent]) => Geofencing.dynamicSpeedLimit(ds.toDF(), zones),
          OutputMode.Append())),
      (4, "Q4 weather speed zones",
        ((ds: Dataset[SensorEvent]) => Geofencing.weatherSpeedZones(ds.toDF(), weather),
          OutputMode.Append())),
      (5, "Q5 battery monitoring",
        ((ds: Dataset[SensorEvent]) =>
          Streaming.batteryMonitoring(ds.toDF(), RailNetwork.workshops),
          OutputMode.Complete())),
      (6, "Q6 heavy passenger load",
        ((ds: Dataset[SensorEvent]) => Gcep.heavyPassengerLoad(ds.toDF()),
          OutputMode.Complete())),
      (7, "Q7 unscheduled stops",
        ((ds: Dataset[SensorEvent]) =>
          Streaming.unscheduledStops(ds, RailNetwork.stations ++ RailNetwork.workshops),
          OutputMode.Append())),
      (8, "Q8 brake monitoring",
        ((ds: Dataset[SensorEvent]) => Gcep.brakePatterns(ds.toDF()),
          OutputMode.Complete())))
  }

  /** Table 1: streaming throughput per query. */
  def runT1Streaming(spark: SparkSession, chunks: Seq[Seq[SensorEvent]],
                     weather: DataFrame): Seq[QueryResult] = {
    import spark.implicits._
    streamingQueries(spark, weather).map { case (qn, label, (q, mode)) =>
      val m = StreamRunner.measure[SensorEvent](spark, chunks, q, mode, s"bench_q$qn")
      QueryResult(label, m.events, m.seconds, m.outRows, NebulaMeos.RecordBytes(qn))
    }
  }

  /** Table 1 companion: batch wall-clock per query over the same data. */
  def runT1Batch(spark: SparkSession, ev: DataFrame, zones: DataFrame,
                 weather: DataFrame): Seq[QueryResult] = {
    val n = ev.count()
    def r(qn: Int, label: String, df: => DataFrame): QueryResult = {
      val secs = timeBatch(df)
      QueryResult(label, n, secs, df.count(), NebulaMeos.RecordBytes(qn))
    }
    Seq(
      r(1, "Q1 alert filtering", Geofencing.alertFiltering(ev, zones)),
      r(2, "Q2 noise monitoring", Geofencing.noiseMonitoring(ev, zones)),
      r(3, "Q3 dynamic speed limit", Geofencing.dynamicSpeedLimit(ev, zones)),
      r(4, "Q4 weather speed zones", Geofencing.weatherSpeedZones(ev, weather)),
      r(5, "Q5 battery monitoring", Gcep.batteryMonitoring(ev, zones)),
      r(6, "Q6 heavy passenger load", Gcep.heavyPassengerLoad(ev)),
      r(7, "Q7 unscheduled stops", Gcep.unscheduledStops(ev, zones)),
      r(8, "Q8 brake monitoring", Gcep.brakePatterns(ev)))
  }

  /** Table 2: MEOS-style (grid lookup column) vs naive
    * baseline (batch wall-clock). The zone-membership queries run
    * against an enlarged catalogue (base + `nSyntheticZones`), the
    * realistic regime for a geofencing service; Q7/Q8 keep the base
    * catalogue (their cost is the window machinery, not the zones).
    */
  def runT2(spark: SparkSession, ev: DataFrame, zones: DataFrame,
            nSyntheticZones: Int = 2000): Seq[(String, Double, Double)] = {
    val big = RailNetwork.toDf(spark,
      RailNetwork.all ++ RailNetwork.syntheticZones(nSyntheticZones)).cache()
    big.count()
    val pairs: Seq[(String, () => DataFrame, () => DataFrame)] = Seq(
      (s"Q1 alerts (${26 + nSyntheticZones} zones)",
        () => Geofencing.alertFiltering(ev, big),
        () => Baselines.alertFiltering(ev, big)),
      (s"Q2 noise (${26 + nSyntheticZones} zones)",
        () => Geofencing.noiseMonitoring(ev, big),
        () => Baselines.noiseMonitoring(ev, big)),
      (s"Q3 speed (${26 + nSyntheticZones} zones)",
        () => Geofencing.dynamicSpeedLimit(ev, big),
        () => Baselines.dynamicSpeedLimit(ev, big)),
      ("Q7 unscheduled stops",
        () => Gcep.unscheduledStops(ev, zones),
        () => Baselines.unscheduledStops(ev, zones)),
      ("Q8 brake patterns",
        () => Gcep.brakePatterns(ev),
        () => Baselines.brakePatterns(ev)))
    val out = pairs.map { case (label, meos, naive) =>
      (label, timeBatch(meos()), timeBatch(naive()))
    }
    big.unpersist()
    out
  }

  // ------------------------------------------------------ formatting --

  def formatT1(streaming: Seq[QueryResult], batch: Seq[QueryResult],
               sf: Double): String = {
    val sb = new StringBuilder
    sb.append(f"%nTable 1 — per-query throughput (SF=$sf, ${streaming.head.events} events)%n")
    sb.append(f"${"query"}%-26s ${"stream e/s"}%12s ${"stream MB/s"}%12s ${"batch e/s"}%12s ${"paper e/s"}%10s ${"paper MB"}%9s%n")
    streaming.zip(batch).zipWithIndex.foreach { case ((s, b), i) =>
      val qn = i + 1
      sb.append(f"${s.query}%-26s ${s.eventsPerSec}%12.0f ${s.mbPerSec}%12.2f " +
        f"${b.eventsPerSec}%12.0f ${NebulaMeos.PaperEventsPerSec(qn)}%10d " +
        f"${NebulaMeos.PaperMb(qn)}%9.2f%n")
    }
    sb.toString
  }

  def formatT2(rows: Seq[(String, Double, Double)], sf: Double): String = {
    val sb = new StringBuilder
    sb.append(f"%nTable 2 — MEOS-style vs naive baseline (batch wall-clock, SF=$sf)%n")
    sb.append(f"${"query"}%-26s ${"meos s"}%9s ${"naive s"}%9s ${"speedup"}%8s%n")
    rows.foreach { case (label, m, n) =>
      sb.append(f"$label%-26s $m%9.2f $n%9.2f ${n / m}%7.1fx%n")
    }
    sb.toString
  }
}
