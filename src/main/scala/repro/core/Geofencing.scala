package repro.core

import java.util.concurrent.ConcurrentMap

import com.google.common.collect.MapMaker
import org.apache.spark.sql.{classic, Column, DataFrame, Encoders}
import org.apache.spark.sql.functions._

import repro.meos.{WeatherIndex, ZoneIndex}
import repro.sncb.{RailNetwork, Zone}
import repro.stream.Windows

/** Geofencing queries Q1–Q4 (paper §3.1), MEOS-style: zone membership
  * is one stateless lookup column over the in-memory grid index
  * ([[repro.meos.ZoneIndex.zonesAt]]) — the geofence structure the
  * paper's integration keeps inside the operator rather than in a join
  * — and Q4's weather another, `st_weather` over the weather index
  * ([[repro.meos.WeatherIndex]]).
  *
  * All functions are pure `DataFrame => DataFrame` transformations and
  * run unchanged on batch and streaming inputs.
  * [[repro.core.NebulaMeos.setup]] must have been called on the session.
  */
object Geofencing {

  /** A value computed from a table: once per Spark cache entry if the
    * table is cached, at every call otherwise. Values are keyed by the
    * entry's builder, weakly and by identity, so `unpersist()` or
    * caching the table again drops the value.
    */
  private final class PerCacheEntry[A <: AnyRef] {
    private val values: ConcurrentMap[AnyRef, A] = new MapMaker().weakKeys().makeMap()

    def apply(table: DataFrame)(compute: => A): A = {
      val cached = table match {
        case d: classic.Dataset[_] => d.sparkSession.sharedState.cacheManager.lookupCachedData(d)
        case _ => None
      }
      cached.fold(compute)(c =>
        values.computeIfAbsent(c.cachedRepresentation.cacheBuilder, _ => compute))
    }
  }

  private val catalogues = new PerCacheEntry[Seq[Zone]]
  private val weatherTables = new PerCacheEntry[Column]

  /** A zone table in its catalogue form, every kind (zone tables are
    * small and static — the list seeds the grid index). A cached table
    * is collected once per cache entry; any other table at every call,
    * that is at every build of a plan over it.
    */
  private[core] def zoneSeq(zones: DataFrame): Seq[Zone] = catalogues(zones) {
    zones.select("zone_id", "kind", "xmin", "xmax", "ymin", "ymax", "lim")
      .collect().toSeq.map(r => Zone(r.getInt(0), r.getString(1), r.getDouble(2),
        r.getDouble(3), r.getDouble(4), r.getDouble(5), r.getDouble(6)))
  }

  /** A weather table as the constant table of `st_weather`, collected
    * as [[zoneSeq]] collects a zone table.
    */
  private def weatherLit(weather: DataFrame): Column = weatherTables(weather) {
    val entry = Encoders.product[WeatherIndex.Entry]
    typedLit(weather.select(entry.schema.map(f => col(f.name).cast(f.dataType)): _*)
      .as(entry).collect().toSeq)
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
    * whether they fired in a maintenance zone. An alert with no usable
    * position (null lookup) is in no maintenance zone.
    *
    * Output: id, train, ts_ms, lon, lat, alert_type, in_maintenance.
    */
  def alertFiltering(events: DataFrame, zones: DataFrame): DataFrame =
    events.where(col("alert_type").isNotNull)
      .withColumn("in_maintenance",
        coalesce(size(zonesAt(zones, Seq("maintenance"))) > 0, lit(false)))
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

  /** Q4 — Weather-Based Speed Zones: look up the weather condition of
    * each event's grid cell for its hour; suggest a condition- and
    * severity-dependent limit and emit events exceeding it. The lookup
    * is `st_weather` over the weather table, collected on the driver
    * when the plan is built as [[weatherLit]] says, so events are never
    * shuffled or joined. An event gets one row per weather row of its
    * cell and hour, as an inner join would give it; a NaN, null or
    * infinite position, or a cell or hour the table lacks, gets none.
    *
    * Output: id, train, ts_ms, condition, severity, speed_kmh, suggested_kmh.
    */
  def weatherSpeedZones(events: DataFrame, weather: DataFrame): DataFrame = {
    // The start of the event's hour (`TrainData.T0` is on the hour),
    // computed in doubles, which hold every millisecond timestamp
    // exactly: no overflow-checked long arithmetic per event.
    val hour = (floor(col("ts_ms") / 3600000L) * 3600000.0).cast("long")
    val w = call_function("st_weather", gridCell("lon", RailNetwork.LonMin, RailNetwork.CellLon),
      gridCell("lat", RailNetwork.LatMin, RailNetwork.CellLat), hour, weatherLit(weather))
    events.withColumn("w", explode(w))
      .select(col("id"), col("train"), col("ts_ms"), col("w.condition"), col("w.severity"),
        col("speed_kmh"))
      .withColumn("suggested_kmh", suggestedKmh)
      .where(col("speed_kmh") > col("suggested_kmh"))
  }

  /** The grid cell along coordinate column `c` of cells `size` wide
    * from `min`; null for a null or NaN coordinate (`floor` would make
    * NaN 0) and beyond the int range (an infinite or far off-frame one).
    */
  private[core] def gridCell(c: String, min: Double, size: Double): Column =
    floor((nanvl(col(c), lit(null)) - min) / size).try_cast("int")

  /** Q4's limit for a weather `condition` and `severity`. */
  private[core] val suggestedKmh: Column = when(col("condition") === 0, 130.0)
    .when(col("condition") === 1, 100.0)
    .when(col("condition") === 3, 80.0)
    .otherwise(60.0) * (lit(1.0) - col("severity") * 0.3)
}
