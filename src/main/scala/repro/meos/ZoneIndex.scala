package repro.meos

import org.apache.spark.sql.{Column, DataFrame, Encoders, SparkSession}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.GenericInternalRow
import org.apache.spark.sql.catalyst.util.{ArrayData, GenericArrayData}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{ArrayType, DataType}

import repro.sncb.{RailNetwork, Zone}

/** Grid index over geofence zones — the "lightweight data structure"
  * MEOS-style engines keep inside the operator so streaming events meet
  * only the zones of their own cell instead of the whole catalogue.
  *
  * Zones are replicated into every grid cell their rectangle overlaps.
  * [[zonesAt]] is the lookup every zone-using query plan runs: the
  * registered `st_zones` expression ([[repro.meos.expressions.StZones]]),
  * which maps an event's cell to its zones through a primitive [[Grid]]
  * inside whole-stage codegen, then applies the exact closed-rectangle
  * test. Being stateless and join-free, the same plan is legal on batch
  * and streaming input. Semantics are identical to the naive every-zone
  * test; Table 2 measures the difference. [[zonesAt]] resolves
  * `st_zones` by name, so [[repro.core.NebulaMeos.setup]] must have been
  * called on the session.
  *
  * [[indexDf]], [[cellIdCol]] and [[join]] keep the index's DataFrame
  * form (one row per cell and zone, and the cell-id equi-join over it)
  * for measuring the index; no query plan uses them.
  */
object ZoneIndex {

  /** Index cell size (degrees): ~2.8 km x 2.2 km. */
  val CellLon = 0.04
  val CellLat = 0.02

  /** One zone of an `st_zones` catalogue. */
  private final case class Entry(zone_id: Int, xmin: Double, xmax: Double,
                                 ymin: Double, ymax: Double, lim: Double)

  /** Type of the `st_zones` catalogue argument, one [[Entry]] per zone. */
  val CatalogueType: ArrayType = ArrayType(Encoders.product[Entry].schema)

  /** Type of a lookup result: the matching zones' ids and limits. */
  val ZonesType: ArrayType =
    DataType.fromDDL("array<struct<zone_id:int,lim:double>>").asInstanceOf[ArrayType]

  private def cellX(lon: Double): Double = math.floor((lon - RailNetwork.LonMin) / CellLon)
  private def cellY(lat: Double): Double = math.floor((lat - RailNetwork.LatMin) / CellLat)

  /** Cell id of a (lon, lat) position. */
  def cellId(lon: Double, lat: Double): Long =
    cellX(lon).toLong * 10000 + cellY(lat).toLong

  /** All cell ids overlapped by a zone's rectangle. */
  def cellsOf(z: Zone): Seq[Long] =
    for (cx <- cellX(z.xmin).toLong to cellX(z.xmax).toLong;
         cy <- cellY(z.ymin).toLong to cellY(z.ymax).toLong) yield cx * 10000 + cy

  /** The index in memory over primitive arrays: `cells` holds, for each
    * cell of the catalogue's cell range (`nx` x `ny` cells from
    * (`x0`, `y0`)), the indices of the zones overlapping it; `bounds`
    * holds xmin, xmax, ymin, ymax per zone and `rows` each zone's
    * prebuilt (zone_id, lim) result row.
    */
  final class Grid private (x0: Double, y0: Double, nx: Int, ny: Int,
                            cells: Array[Array[Int]], bounds: Array[Double],
                            rows: Array[InternalRow]) extends Serializable {

    private def contains(z: Int, lon: Double, lat: Double): Boolean =
      lon >= bounds(4 * z) && lon <= bounds(4 * z + 1) &&
        lat >= bounds(4 * z + 2) && lat <= bounds(4 * z + 3)

    /** Zones whose closed rectangle contains (lon, lat), as a
      * [[ZonesType]] value. A point inside a zone always falls in one of
      * the zone's cells, so only that cell's zones need the exact test;
      * NaN and positions outside every zone's cells meet no zone.
      */
    def at(lon: Double, lat: Double): ArrayData = {
      val cx = cellX(lon) - x0
      val cy = cellY(lat) - y0
      if (!(cx >= 0 && cx < nx && cy >= 0 && cy < ny)) return Grid.Empty
      val candidates = cells(cx.toInt * ny + cy.toInt)
      var n = 0
      var i = 0
      while (i < candidates.length) {
        if (contains(candidates(i), lon, lat)) n += 1
        i += 1
      }
      if (n == 0) return Grid.Empty
      val out = new Array[Any](n)
      n = 0
      i = 0
      while (i < candidates.length) {
        val z = candidates(i)
        if (contains(z, lon, lat)) { out(n) = rows(z); n += 1 }
        i += 1
      }
      new GenericArrayData(out)
    }
  }

  object Grid {
    private val Empty: ArrayData = new GenericArrayData(Array.empty[Any])

    /** Build the grid of a [[CatalogueType]] value (null: no zones).
      * Zones with empty rectangles are left out: no point lies in them.
      */
    def apply(catalogue: ArrayData): Grid = {
      val zs = if (catalogue == null) Array.empty[InternalRow]
        else (0 until catalogue.numElements()).filterNot(catalogue.isNullAt)
          .map(catalogue.getStruct(_, 6)).toArray
      val bounds = zs.flatMap(z => (1 to 4).map(z.getDouble))
      val rows = zs.map(z =>
        new GenericInternalRow(Array[Any](z.getInt(0), z.getDouble(5))): InternalRow)
      // (zone, first and last cell column, first and last cell row)
      val spans = zs.indices
        .filter(i => bounds(4 * i) <= bounds(4 * i + 1) && bounds(4 * i + 2) <= bounds(4 * i + 3))
        .map(i => (i, cellX(bounds(4 * i)), cellX(bounds(4 * i + 1)),
          cellY(bounds(4 * i + 2)), cellY(bounds(4 * i + 3))))
      if (spans.isEmpty) return new Grid(0, 0, 0, 0, Array.empty, bounds, rows)
      val (x0, y0) = (spans.map(_._2).min, spans.map(_._4).min)
      val nx = (spans.map(_._3).max - x0).toInt + 1
      val ny = (spans.map(_._5).max - y0).toInt + 1
      val byCell = (for ((i, zx0, zx1, zy0, zy1) <- spans;
                         cx <- (zx0 - x0).toInt to (zx1 - x0).toInt;
                         cy <- (zy0 - y0).toInt to (zy1 - y0).toInt) yield (cx * ny + cy, i))
        .groupMap(_._1)(_._2)
      val cells = Array.tabulate(nx * ny)(c => byCell.get(c).fold(Array.emptyIntArray)(_.toArray))
      new Grid(x0, y0, nx, ny, cells, bounds, rows)
    }
  }

  /** Every zone of `zones` containing the point (lon, lat), as
    * `array<struct<zone_id:int, lim:double>>` — empty when none does
    * (also for NaN coordinates), null when lon or lat is null.
    */
  def zonesAt(zones: Seq[Zone], lon: Column, lat: Column): Column =
    call_function("st_zones", lon, lat, typedLit(zones.map(z =>
      Entry(z.zoneId, z.xmin, z.xmax, z.ymin, z.ymax, z.limit))))

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
