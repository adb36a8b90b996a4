package repro.meos

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.sncb.{RailNetwork, Zone}

/** Grid index over geofence zones — the "lightweight data structure"
  * MEOS-style engines keep inside the operator so streaming events meet
  * only the zones of their own cell instead of the whole catalogue.
  *
  * Zones are replicated into every grid cell their rectangle overlaps.
  * [[zonesAt]] is the lookup every zone-using query plan runs: a
  * stateless column that maps an event's cell to its zones in memory,
  * then applies the exact closed-rectangle test. Being stateless and
  * join-free, the same plan is legal on batch and streaming input.
  * Semantics are identical to the naive every-zone test; Table 2
  * measures the difference.
  *
  * [[indexDf]], [[cellIdCol]] and [[join]] keep the index's DataFrame
  * form (one row per cell and zone, and the cell-id equi-join over it)
  * for measuring the index; no query plan uses them.
  */
object ZoneIndex {

  /** Index cell size (degrees): ~2.8 km x 2.2 km. */
  val CellLon = 0.04
  val CellLat = 0.02

  /** Cell id of a (lon, lat) position. */
  def cellId(lon: Double, lat: Double): Long =
    math.floor((lon - RailNetwork.LonMin) / CellLon).toLong * 10000 +
      math.floor((lat - RailNetwork.LatMin) / CellLat).toLong

  /** All cell ids overlapped by a zone's rectangle. */
  def cellsOf(z: Zone): Seq[Long] = {
    val x0 = math.floor((z.xmin - RailNetwork.LonMin) / CellLon).toLong
    val x1 = math.floor((z.xmax - RailNetwork.LonMin) / CellLon).toLong
    val y0 = math.floor((z.ymin - RailNetwork.LatMin) / CellLat).toLong
    val y1 = math.floor((z.ymax - RailNetwork.LatMin) / CellLat).toLong
    for (cx <- x0 to x1; cy <- y0 to y1) yield cx * 10000 + cy
  }

  /** The index in memory: cell id -> zones overlapping that cell. */
  final case class Grid(zones: Seq[Zone]) {
    private val byCell: Map[Long, Array[Zone]] =
      zones.flatMap(z => cellsOf(z).map(_ -> z)).groupMap(_._1)(_._2)
        .map { case (c, zs) => c -> zs.toArray }

    /** Zones whose closed rectangle contains (lon, lat). A point inside
      * a zone always falls in one of the zone's cells, so only that
      * cell's zones need the exact test.
      */
    def at(lon: Double, lat: Double): Seq[Zone] =
      byCell.getOrElse(cellId(lon, lat), Array.empty[Zone]).filter(z =>
        lon >= z.xmin && lon <= z.xmax && lat >= z.ymin && lat <= z.ymax).toSeq
  }

  /** Every zone of `zones` containing the point (lon, lat), as
    * `array<struct<zone_id:int, lim:double>>` — empty when none does
    * (also for NaN coordinates).
    */
  def zonesAt(zones: Seq[Zone], lon: Column, lat: Column): Column = {
    val grid = Grid(zones)
    udf((x: Double, y: Double) => grid.at(x, y).map(z => (z.zoneId, z.limit)))
      .apply(lon, lat).cast("array<struct<zone_id:int,lim:double>>")
  }

  /** The index as a DataFrame: one row per (cell_id, zone). */
  def indexDf(spark: SparkSession, zones: Seq[Zone]): DataFrame = {
    import spark.implicits._
    zones.flatMap(z => cellsOf(z).map(c =>
        (c, z.zoneId, z.kind, z.xmin, z.xmax, z.ymin, z.ymax, z.limit)))
      .toDF("cell_id", "zone_id", "kind", "xmin", "xmax", "ymin", "ymax", "lim")
  }

  /** Column computing the event's cell id (same formula as [[cellId]]). */
  def cellIdCol = (floor((col("lon") - RailNetwork.LonMin) / CellLon).cast("long") * 10000 +
    floor((col("lat") - RailNetwork.LatMin) / CellLat).cast("long")).as("cell_id")

  /** Events joined to the zones containing them through [[indexDf]].
    * Output: event columns + zone_id, kind, lim (one row per matching
    * zone, exactly like a direct containment join).
    */
  def join(events: DataFrame, index: DataFrame): DataFrame =
    events.withColumn("cell_id", cellIdCol)
      .join(index, Seq("cell_id"))
      .where(expr("st_in_box(lon, lat, xmin, xmax, ymin, ymax)"))
      .drop("cell_id", "xmin", "xmax", "ymin", "ymax")
}
