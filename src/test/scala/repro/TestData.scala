package repro

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.core.NebulaMeos
import repro.sncb.{RailNetwork, TrainData}

/** Shared, cached test inputs. One JVM runs all suites (see build.sbt),
  * so these materialize once. MEOS functions are registered on first
  * access.
  */
object TestData {

  private def spark = {
    val s = SparkSpec.shared
    NebulaMeos.setup(s)
    s
  }

  /** ~12K events (2K seconds x 6 trains) — oracle-comparison scale. */
  lazy val events002: DataFrame = {
    val df = TrainData.events(spark, sf = 0.002).cache()
    df.count()
    df
  }

  /** ~60K events — planted-positive / streaming-equality scale. */
  lazy val events01: DataFrame = {
    val df = TrainData.events(spark, sf = 0.01).cache()
    df.count()
    df
  }

  /** events002 with unusable positions: every lon of train 1 is NaN; of
    * the other events, one in 25 has a null lon, one a NaN, one +Inf and
    * one -Inf, and one in 11 a NaN lat.
    */
  lazy val badPositions002: DataFrame = {
    val k = col("id") % 25
    val df = events002
      .withColumn("lon", when(col("train") === 1, Double.NaN).when(k === 0, lit(null))
        .when(k === 5, Double.NaN).when(k === 10, Double.PositiveInfinity)
        .when(k === 15, Double.NegativeInfinity).otherwise(col("lon")))
      .withColumn("lat", when(col("id") % 11 === 3, Double.NaN).otherwise(col("lat")))
      .cache()
    df.count()
    df
  }

  lazy val zones: DataFrame = {
    val df = RailNetwork.zonesDf(spark).cache()
    df.count()
    df
  }

  /** One hour of weather covers events002 (2000 s); two hours margin. */
  lazy val weather: DataFrame = {
    val df = TrainData.weather(spark, hours = 4).cache()
    df.count()
    df
  }
}
