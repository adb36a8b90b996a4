package repro.core

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._

import repro.sncb.{TrainData, Zone}
import repro.stream.Windows

/** One fused sensor record as fed to the streaming queries (mirrors the
  * columns of [[repro.sncb.TrainData.events]]).
  */
final case class SensorEvent(id: Long, train: Int, seq: Long, ts_ms: Long,
                             lon: Double, lat: Double, speed_kmh: Double,
                             battery_v: Double, temp_c: Double, brake_bar: Double,
                             noise_db: Double, passengers: Int,
                             alert_type: Option[String])

/** Q5's second formulation and Q8b's reference. Q5 is written
  * independently of [[Gcep.batteryMonitoring]], so that each serves as
  * the other's reference, on batch and streaming input. Every other
  * query, Q8b included, runs its [[Geofencing]]/[[Gcep]] plan on a
  * stream as-is.
  */
object Streaming {

  /** Q5 streaming — single windowed aggregation; the nearest workshop
    * (only a handful exist) is resolved statelessly with a literal
    * `least`-fold instead of a second aggregation. With no workshop,
    * `workshop_id` and `workshop_dist_m` are null.
    */
  def batteryMonitoring(events: DataFrame, workshops: Seq[Zone],
                        windowMs: Long = 300000L,
                        devThreshold: Double = 1.5,
                        tempThreshold: Double = 35.0): DataFrame = {
    val dev = events.withColumn("dev",
      abs(col("battery_v") - TrainData.expectedBatteryV(col("seq"))))
    val win = Windows.tumbling(dev, "ts_ms", windowMs, Seq("train"),
      Seq(count(lit(1)).as("n_events"), avg("dev").as("avg_dev"),
        max("dev").as("max_dev"), max("temp_c").as("max_temp"),
        avg("lon").as("c_lon"), avg("lat").as("c_lat")))
    val alerts = win
      .where(col("max_dev") > devThreshold || col("max_temp") > tempThreshold)
      .withColumn("alert_kind",
        when(col("max_dev") > devThreshold && col("max_temp") > tempThreshold, "BOTH")
          .when(col("max_dev") > devThreshold, "BATTERY")
          .otherwise("OVERHEAT"))
    val dists = workshops.map(z =>
      struct(expr(s"st_distance(c_lon, c_lat, ${z.cLon}, ${z.cLat})").as("d"),
        lit(z.zoneId).as("w")))
    val best = dists match {
      case Seq() => lit(null).cast("struct<d:double,w:int>")
      case Seq(one) => one
      case _ => least(dists: _*)
    }
    alerts
      .withColumn("best", best)
      .withColumn("workshop_id", col("best.w"))
      .withColumn("workshop_dist_m", col("best.d"))
      .drop("best", "c_lon", "c_lat")
  }

  /** Q8b on a stream is [[Gcep.persistentLowPressure]]; on batch input
    * it is [[Baselines.persistentLowPressure]] (gaps and islands), so a
    * check of the batch plan against this method does not compare the
    * threshold fold with itself.
    */
  def persistentLowPressure(events: Dataset[SensorEvent],
                            minDurMs: Long = 240000L)
                           (implicit spark: SparkSession): DataFrame =
    if (events.isStreaming) Gcep.persistentLowPressure(events.toDF(), minDurMs)
    else Baselines.persistentLowPressure(events.toDF(), minDurMs)
}
