package repro.bench

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.streaming.OutputMode

import repro.core._
import repro.sncb.RailNetwork

/** The streaming formulations of Q1–Q8 and the event chunks that feed
  * them, shared by the benchmark (`perfbench/`) and the streaming tests.
  */
object Harness {

  /** The fields of [[SensorEvent]], in constructor order. */
  private val Fields = Seq("id", "train", "seq", "ts_ms", "lon", "lat", "speed_kmh",
    "battery_v", "temp_c", "brake_bar", "noise_db", "passengers", "alert_type")

  /** Collect the stream as time-ordered SensorEvent chunks. A null in
    * any field but `alert_type` fails with the field's name.
    */
  def toChunks(ev: DataFrame, chunkSize: Int = 60000): Seq[Seq[SensorEvent]] =
    ev.orderBy("ts_ms", "train").select(Fields.map(col): _*).collect().map { r =>
      try SensorEvent(r.getLong(0), r.getInt(1), r.getLong(2), r.getLong(3),
        r.getDouble(4), r.getDouble(5), r.getDouble(6), r.getDouble(7), r.getDouble(8),
        r.getDouble(9), r.getDouble(10), r.getInt(11), Option(r.getString(12)))
      catch { case e: RuntimeException =>
        val i = Fields.indices.init.find(r.isNullAt).getOrElse(throw e)
        throw new IllegalArgumentException(s"toChunks: ${Fields(i)} is null in $r", e)
      }
    }.toSeq.grouped(chunkSize).toSeq

  /** The eight streaming formulations, keyed by query number: the
    * batch plans of [[Geofencing]]/[[Gcep]], run on a stream as-is.
    */
  def streamingQueries(spark: SparkSession, weather: DataFrame)
      : Seq[(Int, String, (Dataset[SensorEvent] => DataFrame, OutputMode))] = {
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
        ((ds: Dataset[SensorEvent]) => Gcep.batteryMonitoring(ds.toDF(), zones),
          OutputMode.Complete())),
      (6, "Q6 heavy passenger load",
        ((ds: Dataset[SensorEvent]) => Gcep.heavyPassengerLoad(ds.toDF()),
          OutputMode.Complete())),
      (7, "Q7 unscheduled stops",
        ((ds: Dataset[SensorEvent]) => Gcep.unscheduledStops(ds.toDF(), zones),
          OutputMode.Append())),
      (8, "Q8 brake monitoring",
        ((ds: Dataset[SensorEvent]) => Gcep.brakePatterns(ds.toDF()),
          OutputMode.Complete())))
  }
}
