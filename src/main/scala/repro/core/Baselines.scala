package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

import repro.sncb.{RailNetwork, TrainData}
import repro.stream.Windows

/** Naive baselines: the shape a user of a generic streaming engine
  * (Kafka/Flink per the paper's introduction) writes by hand without a
  * spatiotemporal library — every event tested against *every* zone by
  * generic point-in-polygon, no spatial index, no predicate pushdown
  * before window replication, threshold windows as gaps and islands,
  * weather and the nearest workshop by joins.
  *
  * Each baseline is semantically identical to its [[Geofencing]] /
  * [[Gcep]] counterpart (tests assert result equality); Table 2
  * compares their throughput, and the benchmark checks the Q5 and Q8b
  * plans against theirs through [[Streaming]].
  */
object Baselines {

  /** Zone perimeter as a generic polygon ring (the baseline does not
    * know zones are rectangles).
    */
  private val ringCol: Column = array(
    col("xmin"), col("ymin"), col("xmax"), col("ymin"),
    col("xmax"), col("ymax"), col("xmin"), col("ymax"))

  /** Event-in-zone via cross join against ALL zones and ray casting,
    * filtered to `kind` only afterwards.
    */
  private def zoneMembership(events: DataFrame, zones: DataFrame,
                             kind: String): DataFrame =
    events.crossJoin(zones.withColumn("ring", ringCol))
      .withColumn("in_zone", expr("st_point_in_poly(lon, lat, ring)"))
      .where(col("in_zone") && col("kind") === kind)
      .drop("ring", "in_zone")

  /** Q1 baseline — same output as [[Geofencing.alertFiltering]]. */
  def alertFiltering(events: DataFrame, zones: DataFrame): DataFrame = {
    val alerts = events.where(col("alert_type").isNotNull)
      .select("id", "train", "ts_ms", "lon", "lat", "alert_type")
    val inMaint = zoneMembership(alerts, zones, "maintenance")
      .select("id").distinct()
    val dropped = alerts.join(inMaint, Seq("id"), "left_semi")
      .where(col("alert_type") === "SPEED").select("id")
    alerts.join(dropped, Seq("id"), "left_anti")
      .join(inMaint.withColumn("in_maintenance", lit(true)), Seq("id"), "left")
      .withColumn("in_maintenance", coalesce(col("in_maintenance"), lit(false)))
  }

  /** Q2 baseline — same output as [[Geofencing.noiseMonitoring]]. */
  def noiseMonitoring(events: DataFrame, zones: DataFrame,
                      windowMs: Long = 60000L): DataFrame = {
    val inNb = zoneMembership(events, zones, "neighbourhood")
      .select("ts_ms", "zone_id", "noise_db", "lim")
    Windows.tumbling(inNb, "ts_ms", windowMs, Seq("zone_id"),
        Seq(count(lit(1)).as("n_events"), avg("noise_db").as("avg_db"),
          max("noise_db").as("max_db"), max("lim").as("lim")))
      .withColumn("exceeded", col("avg_db") > col("lim"))
  }

  /** Q3 baseline — same output as [[Geofencing.dynamicSpeedLimit]]. */
  def dynamicSpeedLimit(events: DataFrame, zones: DataFrame): DataFrame =
    zoneMembership(events, zones, "curve")
      .where(col("speed_kmh") > col("lim"))
      .select(col("id"), col("train"), col("ts_ms"), col("lon"), col("lat"),
        col("zone_id"), col("speed_kmh"), col("lim").as("suggested_kmh"))

  /** Q4 baseline — same output as [[Geofencing.weatherSpeedZones]] for
    * positions in the frame: each event joined to the weather of its
    * cell and hour, the weather table broadcast. A NaN position falls in
    * cell 0 here (`floor` makes NaN 0).
    */
  def weatherSpeedZones(events: DataFrame, weather: DataFrame): DataFrame = {
    def cell(c: String, min: Double, size: Double) = floor((col(c) - min) / size).cast("int")
    events.withColumn("cell_x", cell("lon", RailNetwork.LonMin, RailNetwork.CellLon))
      .withColumn("cell_y", cell("lat", RailNetwork.LatMin, RailNetwork.CellLat))
      .withColumn("hour_ms",
        lit(TrainData.T0) + floor((col("ts_ms") - TrainData.T0) / 3600000L) * 3600000L)
      .join(broadcast(weather), Seq("cell_x", "cell_y", "hour_ms"))
      .withColumn("suggested_kmh", Geofencing.suggestedKmh)
      .where(col("speed_kmh") > col("suggested_kmh"))
      .select("id", "train", "ts_ms", "condition", "severity", "speed_kmh", "suggested_kmh")
  }

  /** Q5 baseline — same output as [[Gcep.batteryMonitoring]], over the
    * same alert windows ([[Gcep.batteryAlerts]]): each alert left-joined
    * to the whole zone table on `kind = 'workshop'`, the nearest workshop
    * the least (distance, zone id). An alert with no workshop, or no
    * centroid, gets none.
    */
  def batteryMonitoring(events: DataFrame, zones: DataFrame,
                        windowMs: Long = 300000L,
                        devThreshold: Double = 1.5,
                        tempThreshold: Double = 35.0): DataFrame = {
    val alerts = Gcep.batteryAlerts(events, windowMs, devThreshold, tempThreshold)
    val dist = expr("st_distance(c_lon, c_lat, (xmin + xmax) / 2, (ymin + ymax) / 2)")
    alerts.join(zones, col("kind") === "workshop", "left")
      .groupBy(alerts.columns.toSeq.map(col): _*)
      .agg(min(when(dist.isNotNull, struct(dist.as("d"), col("zone_id")))).as("nearest"))
      .withColumn("workshop_id", col("nearest.zone_id"))
      .withColumn("workshop_dist_m", col("nearest.d"))
      .drop("nearest", "c_lon", "c_lat")
  }

  /** Gaps-and-islands annotation: for rows ordered by `tsMsCol` within
    * each key, assign an `island_id` that increments whenever `pred`
    * changes value, then keep only rows where `pred` holds. Each
    * surviving island is one threshold window. This is how a generic
    * SQL engine writes threshold windows; the DuckDB oracle spells out
    * the same in SQL.
    */
  def islands(df: DataFrame, keys: Seq[String], tsMsCol: String, pred: Column): DataFrame = {
    val w = Window.partitionBy(keys.map(col): _*).orderBy(col(tsMsCol))
    df.withColumn("_pred", pred)
      .withColumn("_chg",
        when(lag(col("_pred"), 1).over(w).isNull ||
             lag(col("_pred"), 1).over(w) =!= col("_pred"), 1).otherwise(0))
      .withColumn("island_id", sum(col("_chg")).over(
        w.rowsBetween(Window.unboundedPreceding, Window.currentRow)))
      .where(col("_pred"))
      .drop("_pred", "_chg")
  }

  /** Threshold windows by gaps and islands — same output as
    * [[repro.stream.ThresholdWindow]] on batch input, written with the
    * SQL a generic engine offers: two window passes (`lag`, then a
    * running `sum`) number the runs of `pred`, and an aggregation closes
    * them, averaging the finite coordinates into the centroid.
    */
  def thresholdWindows(df: DataFrame, pred: Column, minDurMs: Long): DataFrame =
    islands(df, Seq("key"), "tsMs", pred)
      .groupBy(col("key"), col("island_id"))
      .agg(
        min("tsMs").as("startMs"), max("tsMs").as("endMs"),
        count(lit(1)).as("n"), avg("value").as("avgValue"),
        avg(Gcep.finite("lon")).as("cLon"), avg(Gcep.finite("lat")).as("cLat"))
      .where(col("endMs") - col("startMs") >= minDurMs)
      .drop("island_id")

  /** Q7 baseline — same output as [[Gcep.unscheduledStops]]; stop
    * windows come from gaps and islands ([[thresholdWindows]]), and
    * designated-zone membership of each stop centroid is decided by
    * polygon tests against all zones.
    */
  def unscheduledStops(events: DataFrame, zones: DataFrame,
                       minDurMs: Long = 60000L): DataFrame = {
    val stops = thresholdWindows(Gcep.series(events, "speed_kmh"), col("value") < 1.0, minDurMs)
    val designatedHits = stops
      .crossJoin(zones.withColumn("ring", ringCol))
      .where(expr("st_point_in_poly(cLon, cLat, ring)") &&
        col("kind").isin("station", "workshop"))
      .select("key", "startMs").distinct()
    stops.join(designatedHits, Seq("key", "startMs"), "left_anti")
      .drop("avgValue").withColumnRenamed("key", "train")
  }

  /** Q8b baseline — same output as [[Gcep.persistentLowPressure]];
    * low-pressure windows come from gaps and islands
    * ([[thresholdWindows]]).
    */
  def persistentLowPressure(events: DataFrame, minDurMs: Long = 240000L): DataFrame =
    thresholdWindows(Gcep.series(events, "brake_bar"), col("value") < 4.0, minDurMs)
      .withColumnRenamed("key", "train")

  /** Q8a baseline — same output as [[Gcep.brakePatterns]], but every
    * event with a track segment (not just emergencies) is replicated
    * into the sliding windows; the emergency predicate is evaluated
    * inside the aggregation (no pushdown).
    */
  def brakePatterns(events: DataFrame,
                    sizeMs: Long = 600000L, slideMs: Long = 120000L,
                    k: Long = 3L): DataFrame = {
    val ev = events.withColumn("segment", Gcep.segmentCol)
      .where(col("segment").isNotNull)
      .withColumn("emerg", col("brake_bar") < 2.0)
    Windows.sliding(ev, "ts_ms", sizeMs, slideMs, Seq("segment"),
        Seq(sum(when(col("emerg"), 1L).otherwise(0L)).as("n_events"),
          min(when(col("emerg"), col("ts_ms"))).as("first_ms"),
          max(when(col("emerg"), col("ts_ms"))).as("last_ms")))
      .where(col("n_events") >= k)
  }
}
