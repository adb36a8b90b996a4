package repro.meos

import org.apache.spark.sql.{Column, SparkSession}
import org.apache.spark.sql.functions._

import repro.meos.expressions._

/** Registration of MEOS functionality into a SparkSession — the
  * NebulaMEOS integration layer.
  *
  * Scalar predicates (`st_distance`, `ed_within`, `st_in_box`,
  * `st_in_stbox`, `st_point_in_poly`) and the geofence lookup
  * `st_zones` are Catalyst expressions registered through the session
  * `FunctionRegistry` — the analogue of NebulaStream's dynamic operator
  * registration. The scalars compile to calls of their [[Geo]]
  * functions, `st_zones` to its own grid lookup.
  * [[repro.meos.ZoneIndex.zonesAt]] calls `st_zones` by name, so it
  * needs this registration on the session. Sequence-valued MEOS
  * functions (`tpoint_at_stbox`, `tpoint_length`, ...) operate on
  * trajectory values encoded as `array<array<double>>` with inner
  * triples `[epochMs, lon, lat]`, and are registered as Scala UDFs —
  * the plugin boundary for types Catalyst does not know natively.
  */
object MeosFunctions {

  /** Inner triple layout of an encoded trajectory instant. */
  private def toTSeq(seq: Seq[Seq[Double]]): Option[TSeq] =
    if (seq == null || seq.isEmpty) None
    else Some(TSeq.of(seq.map(p => (p(0).toLong, p(1), p(2)))))

  private def fromTSeq(s: TSeq): Seq[Seq[Double]] =
    s.insts.map(i => Seq(i.t.toDouble, i.lon, i.lat))

  /** Aggregation column building an encoded trajectory from per-event
    * columns: `groupBy(...).agg(tpointSeq($"ts_ms", $"lon", $"lat"))`.
    * Sorting by the leading timestamp makes the result order-stable.
    */
  def tpointSeq(tsMs: Column, lon: Column, lat: Column): Column =
    sort_array(collect_list(array(tsMs.cast("double"), lon, lat)))

  /** Register every MEOS function on the session (idempotent). */
  def registerAll(spark: SparkSession): Unit = {
    val reg = spark.sessionState.functionRegistry
    reg.createOrReplaceTempFunction("st_distance", StDistance(_), "scala_udf")
    reg.createOrReplaceTempFunction("ed_within", EdWithin(_), "scala_udf")
    reg.createOrReplaceTempFunction("st_in_box", StInBox(_), "scala_udf")
    reg.createOrReplaceTempFunction("st_in_stbox", StInStbox(_), "scala_udf")
    reg.createOrReplaceTempFunction("st_point_in_poly", StPointInPoly(_), "scala_udf")
    reg.createOrReplaceTempFunction("st_zones", StZones(_), "scala_udf")

    spark.udf.register("tpoint_length",
      (seq: Seq[Seq[Double]]) => toTSeq(seq).map(_.lengthMeters).getOrElse(0.0))
    spark.udf.register("tpoint_duration_s",
      (seq: Seq[Seq[Double]]) => toTSeq(seq).map(_.durationMs / 1000.0).getOrElse(0.0))
    spark.udf.register("tpoint_avg_speed",
      (seq: Seq[Seq[Double]]) => toTSeq(seq).map(_.avgSpeedMps).getOrElse(0.0))
    spark.udf.register("tpoint_num_instants",
      (seq: Seq[Seq[Double]]) => toTSeq(seq).map(_.insts.length).getOrElse(0))
    spark.udf.register("tpoint_min_dist",
      (seq: Seq[Seq[Double]], lon: Double, lat: Double) =>
        toTSeq(seq).map(_.minDistMeters(lon, lat)).getOrElse(Double.MaxValue))
    spark.udf.register("tpoint_edwithin",
      (seq: Seq[Seq[Double]], lon: Double, lat: Double, d: Double) =>
        toTSeq(seq).exists(_.everDWithin(lon, lat, d)))
    spark.udf.register("tpoint_at_stbox",
      (seq: Seq[Seq[Double]],
       xmin: Double, xmax: Double, ymin: Double, ymax: Double,
       tminMs: Double, tmaxMs: Double) => {
        val box = STBox(xmin, xmax, ymin, ymax, tminMs.toLong, tmaxMs.toLong)
        toTSeq(seq).map(_.atStbox(box).map(fromTSeq)).getOrElse(Seq.empty)
      })
    spark.udf.register("tpoint_ever_at_stbox",
      (seq: Seq[Seq[Double]],
       xmin: Double, xmax: Double, ymin: Double, ymax: Double,
       tminMs: Double, tmaxMs: Double) => {
        val box = STBox(xmin, xmax, ymin, ymax, tminMs.toLong, tmaxMs.toLong)
        toTSeq(seq).exists(_.everAtStbox(box))
      })
  }
}
