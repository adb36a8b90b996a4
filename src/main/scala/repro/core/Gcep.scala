package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

import repro.sncb.{RailNetwork, TrainData}
import repro.stream.{ThresholdWindow, Windows}

/** Geospatial complex event processing queries Q5–Q8 (paper §3.2). */
object Gcep {

  /** Q5 — Battery Monitoring: per train and tumbling window, compare
    * battery voltage against the predefined charge/discharge curve;
    * alert on average deviation or overheating and attach the nearest
    * workshop: the least MEOS `st_distance` from the window's centroid
    * over the workshop catalogue, a stateless scalar per alert (null
    * with no workshop or no centroid). The catalogue comes from
    * [[Geofencing.zoneSeq]]: a cached zone table is collected once, any
    * other at every plan build.
    *
    * Output: win_start, train, n_events, avg_dev, max_dev, max_temp,
    *         alert_kind, workshop_id, workshop_dist_m.
    */
  def batteryMonitoring(events: DataFrame, zones: DataFrame,
                        windowMs: Long = 300000L,
                        devThreshold: Double = 1.5,
                        tempThreshold: Double = 35.0): DataFrame = {
    val workshops = Geofencing.zoneSeq(zones).filter(_.kind == "workshop")
      .map(z => (z.cLon, z.cLat, z.zoneId))
    val nearest = array_min(transform(typedLit(workshops), w => struct(
      call_function("st_distance", col("c_lon"), col("c_lat"),
        w.getField("_1"), w.getField("_2")).as("dist"),
      w.getField("_3").as("id"))))
    batteryAlerts(events, windowMs, devThreshold, tempThreshold)
      .withColumn("nearest", when(col("c_lon").isNotNull && col("c_lat").isNotNull, nearest))
      .select(col("win_start"), col("train"), col("n_events"), col("avg_dev"),
        col("max_dev"), col("max_temp"), col("alert_kind"),
        col("nearest.id").as("workshop_id"), col("nearest.dist").as("workshop_dist_m"))
  }

  /** Q5's alert windows, the part of its plan that
    * [[Baselines.batteryMonitoring]] shares: the columns of
    * [[batteryMonitoring]] but the workshop, and the window's centroid
    * `c_lon`, `c_lat` over its finite coordinates, each null when the
    * window has none.
    */
  private[core] def batteryAlerts(events: DataFrame, windowMs: Long,
                                  devThreshold: Double, tempThreshold: Double): DataFrame = {
    val dev = events.withColumn("dev",
      abs(col("battery_v") - TrainData.expectedBatteryV(col("seq"))))
    Windows.tumbling(dev, "ts_ms", windowMs, Seq("train"),
        Seq(count(lit(1)).as("n_events"), avg("dev").as("avg_dev"),
          max("dev").as("max_dev"), max("temp_c").as("max_temp"),
          avg(finite("lon")).as("c_lon"), avg(finite("lat")).as("c_lat")))
      .where(col("max_dev") > devThreshold || col("max_temp") > tempThreshold)
      .withColumn("alert_kind",
        when(col("max_dev") > devThreshold && col("max_temp") > tempThreshold, "BOTH")
          .when(col("max_dev") > devThreshold, "BATTERY")
          .otherwise("OVERHEAT"))
  }

  /** Column `c` where it is finite, else null: what a centroid averages. */
  private[core] def finite(c: String): Column =
    when(abs(col(c)) < Double.PositiveInfinity, col(c))

  /** Q6 — Heavy Passenger Load: per train and tumbling window, flag
    * windows with average occupancy at or above capacity (no free
    * seats) so an extra train can be scheduled.
    *
    * Output: win_start, train, n_events, avg_pax, max_pax, occupancy.
    */
  def heavyPassengerLoad(events: DataFrame,
                         windowMs: Long = 600000L,
                         capacity: Int = TrainData.Capacity): DataFrame =
    Windows.tumbling(events, "ts_ms", windowMs, Seq("train"),
        Seq(count(lit(1)).as("n_events"), avg("passengers").as("avg_pax"),
          max("passengers").as("max_pax")))
      .withColumn("occupancy", col("avg_pax") / capacity)
      .where(col("occupancy") >= 1.0)

  /** Q7 — Unscheduled Stops: threshold windows where speed < 1 km/h for
    * at least `minDurMs`, whose centroid lies outside every designated
    * (station or workshop) zone. A window with no centroid is in no zone.
    *
    * Output: train, startMs, endMs, n, cLon, cLat.
    */
  def unscheduledStops(events: DataFrame, zones: DataFrame,
                       minDurMs: Long = 60000L): DataFrame =
    ThresholdWindow(series(events, "speed_kmh"), col("value") < 1.0, minDurMs)
      .where(!coalesce(size(Geofencing.zonesAt(zones, Seq("station", "workshop"),
        col("cLon"), col("cLat"))) > 0, lit(false)))
      .drop("avgValue").withColumnRenamed("key", "train")

  /** Each train's `value` column in the layout of
    * [[repro.stream.ThresholdWindow]]: key, tsMs, value, lon, lat.
    */
  private[core] def series(events: DataFrame, value: String): DataFrame =
    events.select(col("train").cast("long").as("key"), col("ts_ms").as("tsMs"),
      col(value).as("value"), col("lon"), col("lat"))

  /** Track segment id of a position: cell of a fixed 0.02° x 0.015°
    * grid over the network frame (≈ 1.4 x 1.7 km segments); null for a
    * position without a grid cell, as [[Geofencing.gridCell]] says.
    */
  def segmentCol = (Geofencing.gridCell("lon", RailNetwork.LonMin, 0.02).cast("long") * 1000 +
    Geofencing.gridCell("lat", RailNetwork.LatMin, 0.015)).as("segment")

  /** Q8a — Monitoring Brakes (pattern): at least `k` emergency-brake
    * events (< 2 bar) in one sliding window over the same track
    * segment. An event without a segment is in no window.
    *
    * Output: win_start, segment, n_events, first_ms, last_ms.
    */
  def brakePatterns(events: DataFrame,
                    sizeMs: Long = 600000L, slideMs: Long = 120000L,
                    k: Long = 3L): DataFrame =
    countPattern(events.withColumn("segment", segmentCol),
      Seq("segment"), "ts_ms", col("brake_bar") < 2.0 && col("segment").isNotNull,
      sizeMs, slideMs, k)

  /** Count pattern (GCEP after Ziehn [10], which NebulaMEOS extends):
    * fire when at least `k` events satisfying `pred` fall in one sliding
    * window (`sizeMs`, `slideMs`) of a key group. The predicate is
    * pushed below the window replication.
    *
    * Output: win_start, keys, n_events, first_ms, last_ms.
    */
  private[repro] def countPattern(df: DataFrame, keys: Seq[String], tsMsCol: String,
                                  pred: Column, sizeMs: Long, slideMs: Long, k: Long): DataFrame =
    Windows.sliding(df.where(pred), tsMsCol, sizeMs, slideMs, keys,
        Seq(count(lit(1)).as("n_events"),
            min(tsMsCol).as("first_ms"), max(tsMsCol).as("last_ms")))
      .where(col("n_events") >= k)

  /** Q8b — Monitoring Brakes (persistent low pressure): threshold
    * windows where brake pressure stays below 4 bar for `minDurMs`.
    *
    * Output: train, startMs, endMs, n, avgValue (mean bar), cLon, cLat.
    */
  def persistentLowPressure(events: DataFrame,
                            minDurMs: Long = 240000L): DataFrame =
    ThresholdWindow(series(events, "brake_bar"), col("value") < 4.0, minDurMs)
      .withColumnRenamed("key", "train")
}
