package repro.core

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}

import repro.sncb.{RailNetwork, Zone}

/** One fused sensor record as fed to the streaming queries (mirrors the
  * columns of [[repro.sncb.TrainData.events]]).
  */
final case class SensorEvent(id: Long, train: Int, seq: Long, ts_ms: Long,
                             lon: Double, lat: Double, speed_kmh: Double,
                             battery_v: Double, temp_c: Double, brake_bar: Double,
                             noise_db: Double, passengers: Int,
                             alert_type: Option[String])

/** The benchmark's batch references for Q5 and Q8b, the naive baselines
  * of [[Baselines]], under the names and signatures the benchmark calls.
  * Every query runs its [[Geofencing]]/[[Gcep]] plan on batch and
  * streaming input alike.
  */
object Streaming {

  /** Q5's naive baseline, [[Baselines.batteryMonitoring]], over a zone
    * table of `workshops`.
    */
  def batteryMonitoring(events: DataFrame, workshops: Seq[Zone]): DataFrame =
    Baselines.batteryMonitoring(events, RailNetwork.toDf(events.sparkSession, workshops))

  /** Q8b: [[Gcep.persistentLowPressure]] on a stream, and on batch
    * input its gaps-and-islands baseline, so a check of the batch plan
    * against this method does not compare the threshold fold with itself.
    */
  def persistentLowPressure(events: Dataset[SensorEvent],
                            minDurMs: Long = 240000L)
                           (implicit spark: SparkSession): DataFrame =
    if (events.isStreaming) Gcep.persistentLowPressure(events.toDF(), minDurMs)
    else Baselines.persistentLowPressure(events.toDF(), minDurMs)
}
