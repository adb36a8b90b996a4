package perfbench

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.streaming.OutputMode

import repro.bench.Harness
import repro.core.{Baselines, Gcep, Geofencing, SensorEvent, Streaming}
import repro.sncb.TrainData

/** A streaming formulation of one query. */
final case class StreamQuery(name: String, build: Dataset[SensorEvent] => DataFrame, mode: OutputMode)

/** Q1–Q8b as the program's public entry points expose them. */
object Queries {

  /** Q1–Q8b in the order they are measured: the two families (below)
    * alternate, so that each family's rate is taken over the whole timed
    * window rather than one half of it. The shared host's speed drifts
    * within a run, and this way the drift falls on both families alike.
    */
  val names: Seq[String] = Seq("q1", "q5", "q2", "q6", "q3", "q7", "q4", "q8a", "q8b")

  /** Queries that take a zone catalogue for geofencing (Q1–Q3); the
    * rest use the base catalogue or none.
    */
  val zoneQueries: Set[String] = Set("q1", "q2", "q3")

  /** The paper's two query families: geofencing (Q1–Q4, `Geofencing`)
    * and complex event processing (Q5–Q8b, `Gcep`).
    */
  val families: Seq[(String, Seq[String])] = Seq(
    "geofencing" -> Seq("q1", "q2", "q3", "q4"),
    "gcep" -> Seq("q5", "q6", "q7", "q8a", "q8b"))

  /** The nine streaming formulations: `Harness.streamingQueries` plus
    * `Streaming.persistentLowPressure` (Q8b), which the harness omits,
    * in the order of [[names]].
    */
  def streaming(spark: SparkSession, weather: DataFrame): Seq[StreamQuery] =
    (Harness.streamingQueries(spark, weather).map { case (qn, _, (q, mode)) =>
      StreamQuery(if (qn == 8) "q8a" else s"q$qn", q, mode)
    } :+ StreamQuery("q8b", ds => Streaming.persistentLowPressure(ds)(spark), OutputMode.Append()))
      .sortBy(q => names.indexOf(q.name))

  /** The batch plan of query `name`. */
  def batch(name: String, ev: DataFrame, zones: DataFrame, weather: DataFrame): DataFrame =
    name match {
      case "q1" => Geofencing.alertFiltering(ev, zones)
      case "q2" => Geofencing.noiseMonitoring(ev, zones)
      case "q3" => Geofencing.dynamicSpeedLimit(ev, zones)
      case "q4" => Geofencing.weatherSpeedZones(ev, weather)
      case "q5" => Gcep.batteryMonitoring(ev, zones)
      case "q6" => Gcep.heavyPassengerLoad(ev)
      case "q7" => Gcep.unscheduledStops(ev, zones)
      case "q8a" => Gcep.brakePatterns(ev)
      case "q8b" => Gcep.persistentLowPressure(ev)
    }

  /** The naive baseline of query `name`, where the program has one. */
  def baseline(name: String, ev: DataFrame, zones: DataFrame): Option[DataFrame] =
    name match {
      case "q1" => Some(Baselines.alertFiltering(ev, zones))
      case "q2" => Some(Baselines.noiseMonitoring(ev, zones))
      case "q3" => Some(Baselines.dynamicSpeedLimit(ev, zones))
      case "q7" => Some(Baselines.unscheduledStops(ev, zones))
      case "q8a" => Some(Baselines.brakePatterns(ev))
      case _ => None
    }

  /** Threshold windows (Q7, Q8b) still open at the end of a finite
    * input are reported by the batch plan but, correctly, not by the
    * streaming one; compare windows closed before `lastTs` only.
    */
  def closedOnly(name: String, df: DataFrame, lastTs: Long): DataFrame =
    if (name == "q7" || name == "q8b") df.where(col("endMs") < lastTs) else df

  /** Event-time of the last event among the first `seqs` seconds. */
  def lastTs(seqs: Long): Long = TrainData.T0 + (seqs - 1) * 1000L
}
