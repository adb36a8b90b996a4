package repro.core

import org.apache.spark.sql.SparkSession

import repro.meos.expressions._

/** Session-level integration, the NebulaMEOS "plugin" entry point:
  * registering the MEOS expressions (five scalars and the two lookups
  * `st_zones` and `st_weather`) on a SparkSession makes every query in
  * [[Geofencing]] and [[Gcep]] resolvable.
  */
object NebulaMeos {

  /** Register every MEOS expression in the session `FunctionRegistry`
    * (idempotent), the analogue of NebulaStream's dynamic operator
    * registration. [[repro.meos.ZoneIndex.zonesAt]] and Q4 call
    * `st_zones` and `st_weather` by name, so they need this
    * registration too.
    */
  def setup(spark: SparkSession): Unit = {
    val reg = spark.sessionState.functionRegistry
    reg.createOrReplaceTempFunction("st_distance", StDistance(_), "scala_udf")
    reg.createOrReplaceTempFunction("ed_within", EdWithin(_), "scala_udf")
    reg.createOrReplaceTempFunction("st_in_box", StInBox(_), "scala_udf")
    reg.createOrReplaceTempFunction("st_in_stbox", StInStbox(_), "scala_udf")
    reg.createOrReplaceTempFunction("st_point_in_poly", StPointInPoly(_), "scala_udf")
    reg.createOrReplaceTempFunction("st_zones", StZones(_), "scala_udf")
    reg.createOrReplaceTempFunction("st_weather", StWeather(_), "scala_udf")
  }

  /** Serialized bytes per event per query stream, chosen to match the
    * paper's implied ratios (MB reported / events-per-second reported):
    * Q1–4 and Q8 read the full fused record (112 B), Q5 the battery
    * subset (76 B), Q6 the passenger subset (115 B incl. per-coach
    * counts), Q7 the GPS+speed subset (40 B). Used by the benches to
    * convert events/s into MB/s.
    */
  val RecordBytes: Map[Int, Int] = Map(
    1 -> 112, 2 -> 112, 3 -> 112, 4 -> 112,
    5 -> 76, 6 -> 115, 7 -> 40, 8 -> 112)

  /** The paper's reported throughput per query (events/s, MB). */
  val PaperEventsPerSec: Map[Int, Int] = Map(
    1 -> 20000, 2 -> 20000, 3 -> 20000, 4 -> 20000,
    5 -> 8000, 6 -> 32000, 7 -> 10000, 8 -> 20000)
  val PaperMb: Map[Int, Double] = Map(
    1 -> 2.24, 2 -> 2.24, 3 -> 2.24, 4 -> 2.24,
    5 -> 0.61, 6 -> 3.68, 7 -> 0.40, 8 -> 2.24)
}
