package repro.core

import java.util.concurrent.ConcurrentMap

import com.google.common.collect.MapMaker
import org.apache.spark.sql.{classic, Column, DataFrame}
import org.apache.spark.sql.functions._

import repro.meos.ZoneIndex
import repro.sncb.{RailNetwork, TrainData, Zone}
import repro.stream.Windows

/** Geofencing queries Q1–Q4 (paper §3.1), MEOS-style: zone membership
  * is one stateless lookup column over the in-memory grid index
  * ([[repro.meos.ZoneIndex.zonesAt]]) — the geofence structure the
  * paper's integration keeps inside the operator rather than in a join.
  *
  * All functions are pure `DataFrame => DataFrame` transformations and
  * run unchanged on batch and streaming inputs.
  * [[repro.core.NebulaMeos.setup]] must have been called on the session.
  */
object Geofencing {

  /** Catalogues of cached zone tables, keyed by the cache entry's
    * builder. Keys are weak and compared by identity, so `unpersist()`
    * or caching the table again drops the catalogue.
    */
  private val catalogues: ConcurrentMap[AnyRef, Seq[Zone]] =
    new MapMaker().weakKeys().makeMap()

  /** A zone table in its catalogue form, every kind (zone tables are
    * small and static — the list seeds the grid index). A cached table
    * is collected once per cache entry; any other table at every call,
    * that is at every build of a plan over it.
    */
  private[core] def zoneSeq(zones: DataFrame): Seq[Zone] = {
    def collect(): Seq[Zone] =
      zones.select("zone_id", "kind", "xmin", "xmax", "ymin", "ymax", "lim")
        .collect().toSeq.map(r => Zone(r.getInt(0), r.getString(1), r.getDouble(2),
          r.getDouble(3), r.getDouble(4), r.getDouble(5), r.getDouble(6)))
    val cached = zones match {
      case d: classic.Dataset[_] => d.sparkSession.sharedState.cacheManager.lookupCachedData(d)
      case _ => None
    }
    cached.fold(collect())(c =>
      catalogues.computeIfAbsent(c.cachedRepresentation.cacheBuilder, _ => collect()))
  }

  /** The zones of `kinds` containing (lon, lat), as the
    * `array<struct<zone_id, lim>>` of [[repro.meos.ZoneIndex.zonesAt]].
    * Kinds are picked on the driver from [[zoneSeq]]'s catalogue, so a
    * cached zone table is collected once, any other at every plan build.
    */
  private[core] def zonesAt(zones: DataFrame, kinds: Seq[String],
                            lon: Column = col("lon"), lat: Column = col("lat")): Column =
    ZoneIndex.zonesAt(zoneSeq(zones).filter(z => kinds.contains(z.kind)), lon, lat)

  /** Q1 — Location-Based Alert Filtering: drop non-essential (SPEED)
    * alerts raised inside maintenance zones; annotate the rest with
    * whether they fired in a maintenance zone.
    *
    * Output: id, train, ts_ms, lon, lat, alert_type, in_maintenance.
    */
  def alertFiltering(events: DataFrame, zones: DataFrame): DataFrame =
    events.where(col("alert_type").isNotNull)
      .withColumn("in_maintenance", size(zonesAt(zones, Seq("maintenance"))) > 0)
      .where(!(col("in_maintenance") && col("alert_type") === "SPEED"))
      .select("id", "train", "ts_ms", "lon", "lat", "alert_type", "in_maintenance")

  /** Q2 — Location-Based Noise Monitoring: per neighbourhood and
    * tumbling window, aggregate outside-noise readings and flag windows
    * whose average exceeds the neighbourhood's ceiling. Neighbourhoods
    * may overlap: an event counts in every one containing it.
    *
    * Output: win_start, zone_id, n_events, avg_db, max_db, lim, exceeded.
    */
  def noiseMonitoring(events: DataFrame, zones: DataFrame,
                      windowMs: Long = 60000L): DataFrame = {
    val inNb = events
      .select(col("ts_ms"), col("noise_db"),
        explode(zonesAt(zones, Seq("neighbourhood"))).as("z"))
      .select(col("ts_ms"), col("z.zone_id"), col("noise_db"), col("z.lim"))
    Windows.tumbling(inNb, "ts_ms", windowMs, Seq("zone_id"),
        Seq(count(lit(1)).as("n_events"), avg("noise_db").as("avg_db"),
          max("noise_db").as("max_db"), max("lim").as("lim")))
      .withColumn("exceeded", col("avg_db") > col("lim"))
  }

  /** Q3 — Dynamic Speed Limit: emit a violation row for every event
    * inside a curve/high-risk zone travelling above the zone's limit.
    *
    * Output: id, train, ts_ms, lon, lat, zone_id, speed_kmh, suggested_kmh.
    */
  def dynamicSpeedLimit(events: DataFrame, zones: DataFrame): DataFrame =
    events.withColumn("z", explode(zonesAt(zones, Seq("curve"))))
      .where(col("speed_kmh") > col("z.lim"))
      .select(col("id"), col("train"), col("ts_ms"), col("lon"), col("lat"),
        col("z.zone_id"), col("speed_kmh"), col("z.lim").as("suggested_kmh"))

  /** Q4 — Weather-Based Speed Zones: join each event to the weather
    * condition of its grid cell for its hour; suggest a condition- and
    * severity-dependent limit and emit events exceeding it. The weather
    * table is small and is broadcast, so events are never shuffled.
    *
    * Output: id, train, ts_ms, condition, severity, speed_kmh, suggested_kmh.
    */
  def weatherSpeedZones(events: DataFrame, weather: DataFrame): DataFrame = {
    val ev = events
      .withColumn("cell_x",
        floor((col("lon") - RailNetwork.LonMin) / RailNetwork.CellLon).cast("int"))
      .withColumn("cell_y",
        floor((col("lat") - RailNetwork.LatMin) / RailNetwork.CellLat).cast("int"))
      .withColumn("hour_ms",
        lit(TrainData.T0) +
          floor((col("ts_ms") - TrainData.T0) / 3600000L) * 3600000L)
    val base = when(col("condition") === 0, 130.0)
      .when(col("condition") === 1, 100.0)
      .when(col("condition") === 3, 80.0)
      .otherwise(60.0)
    ev.join(broadcast(weather), Seq("cell_x", "cell_y", "hour_ms"))
      .withColumn("suggested_kmh", base * (lit(1.0) - col("severity") * 0.3))
      .where(col("speed_kmh") > col("suggested_kmh"))
      .select("id", "train", "ts_ms", "condition", "severity",
        "speed_kmh", "suggested_kmh")
  }
}
