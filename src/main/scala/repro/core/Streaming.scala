package repro.core

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._

import repro.meos.ZoneIndex
import repro.sncb.{TrainData, Zone}
import repro.stream.{ThresholdEvent, ThresholdWindow, Windows}

/** One fused sensor record as fed to the streaming queries (mirrors the
  * columns of [[repro.sncb.TrainData.events]]).
  */
final case class SensorEvent(id: Long, train: Int, seq: Long, ts_ms: Long,
                             lon: Double, lat: Double, speed_kmh: Double,
                             battery_v: Double, temp_c: Double, brake_bar: Double,
                             noise_db: Double, passengers: Int,
                             alert_type: Option[String])

/** Structured Streaming formulations of Q5 and of the threshold
  * windows of Q7 and Q8b. The batch threshold window (a shuffle, a sort
  * and a `mapPartitions` scan) does not run on a stream; Q5 is written
  * independently of [[Gcep.batteryMonitoring]] so that each serves as
  * the other's reference. Every other query runs its
  * [[Geofencing]]/[[Gcep]] plan on the stream as-is. Tests assert each
  * variant produces the same rows as its batch counterpart.
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

  /** Q7 streaming — threshold windows via `flatMapGroupsWithState`,
    * then the same stateless designated-zone lookup as
    * [[Gcep.unscheduledStops]].
    */
  def unscheduledStops(events: Dataset[SensorEvent], designated: Seq[Zone],
                       minDurMs: Long = 60000L)
                      (implicit spark: SparkSession): DataFrame = {
    import spark.implicits._
    val prepared = events.map(e =>
      ThresholdEvent(e.train.toLong, e.ts_ms, e.speed_kmh, e.lon, e.lat))
    ThresholdWindow.streaming(prepared, _ < 1.0, minDurMs)
      .toDF()
      .where(size(ZoneIndex.zonesAt(designated, col("cLon"), col("cLat"))) === 0)
      .select(col("key").as("train"), col("startMs"), col("endMs"),
        col("n"), col("cLon"), col("cLat"))
  }

  /** Q8b streaming — persistent low pressure via the streaming
    * threshold window.
    */
  def persistentLowPressure(events: Dataset[SensorEvent],
                            minDurMs: Long = 240000L)
                           (implicit spark: SparkSession): DataFrame = {
    import spark.implicits._
    val prepared = events.map(e =>
      ThresholdEvent(e.train.toLong, e.ts_ms, e.brake_bar, e.lon, e.lat))
    ThresholdWindow.streaming(prepared, _ < 4.0, minDurMs)
      .toDF()
      .select(col("key").as("train"), col("startMs"), col("endMs"),
        col("n"), col("avgValue"), col("cLon"), col("cLat"))
  }
}
