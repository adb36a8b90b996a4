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
}
