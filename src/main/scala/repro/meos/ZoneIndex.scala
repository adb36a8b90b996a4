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

  /** The index in memory over flat primitive arrays: `cells` holds, for
    * each cell of the catalogue's cell range (`nx` x `ny` cells from
    * (`x0`, `y0`)), the indices of the zones overlapping it; `bounds`
    * holds xmin, xmax, ymin, ymax per zone, and `ids` and `lims` each
    * zone's result.
    */
  final class Grid private (x0: Double, y0: Double, nx: Int, ny: Int, cells: Slots,
                            bounds: Array[Double], ids: Array[Int], lims: Array[Double])
      extends Serializable {

    /** Each zone's (zone_id, lim) result row, built once per deserialized copy. */
    @transient private lazy val rows: Array[InternalRow] = Array.tabulate(ids.length)(z =>
      new GenericInternalRow(Array[Any](ids(z), lims(z))))

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
      if (!(cx >= 0 && cx < nx && cy >= 0 && cy < ny)) return Slots.NoMatch
      val c = cx.toInt * ny + cy.toInt
      var n = 0
      var i = cells.starts(c)
      while (i < cells.starts(c + 1)) {
        if (contains(cells.ids(i), lon, lat)) n += 1
        i += 1
      }
      if (n == 0) return Slots.NoMatch
      val out = new Array[Any](n)
      n = 0
      i = cells.starts(c)
      while (i < cells.starts(c + 1)) {
        val z = cells.ids(i)
        if (contains(z, lon, lat)) { out(n) = rows(z); n += 1 }
        i += 1
      }
      new GenericArrayData(out)
    }
  }

  object Grid {
    /** Build the grid of a [[CatalogueType]] value (null: no zones).
      * Zones with empty rectangles are left out: no point lies in them.
      */
    def apply(catalogue: ArrayData): Grid = {
      val zs = Slots.structs(catalogue, 6)
      val bounds = new Array[Double](4 * zs.length)
      for (z <- zs.indices; j <- 0 until 4) bounds(4 * z + j) = zs(z).getDouble(j + 1)
      def live(z: Int) =
        bounds(4 * z) <= bounds(4 * z + 1) && bounds(4 * z + 2) <= bounds(4 * z + 3)
      // the catalogue's cell range: columns x0 to x1, rows y0 to y1
      var (x0, x1, y0, y1) = (Double.MaxValue, Double.MinValue, Double.MaxValue, Double.MinValue)
      for (z <- zs.indices) if (live(z)) {
        x0 = x0 min cellX(bounds(4 * z)); x1 = x1 max cellX(bounds(4 * z + 1))
        y0 = y0 min cellY(bounds(4 * z + 2)); y1 = y1 max cellY(bounds(4 * z + 3))
      }
      val (nx, ny) = if (x0 > x1) (0, 0) else ((x1 - x0).toInt + 1, (y1 - y0).toInt + 1)
      val cells = Slots(nx * ny, zs.length) { (z, add) =>
        if (live(z)) {
          for (cx <- (cellX(bounds(4 * z)) - x0).toInt to (cellX(bounds(4 * z + 1)) - x0).toInt;
               cy <- (cellY(bounds(4 * z + 2)) - y0).toInt to (cellY(bounds(4 * z + 3)) - y0).toInt)
            add(cx * ny + cy)
        }
      }
      new Grid(x0, y0, nx, ny, cells, bounds, zs.map(_.getInt(0)), zs.map(_.getDouble(5)))
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

/** Entries grouped by slot in two flat arrays, the layout of the indexes
  * the lookup expressions keep: slot `s` holds the entries `ids(i)` for
  * `i` from `starts(s)` until `starts(s + 1)`.
  */
final class Slots private (val starts: Array[Int], val ids: Array[Int]) extends Serializable

object Slots {
  /** The result of a lookup that matches nothing. */
  val NoMatch: ArrayData = new GenericArrayData(Array.empty[Any])

  /** The elements of an array of structs with `fields` fields that are
    * not null (null: no elements).
    */
  def structs(array: ArrayData, fields: Int): Array[InternalRow] =
    Array.tabulate(if (array == null) 0 else array.numElements())(i =>
      if (array.isNullAt(i)) null else array.getStruct(i, fields)).filter(_ != null)

  /** Group entries `0 until n` into `count` slots: `cover(e, add)` calls
    * `add(s)` for every slot `s` of entry `e`, once to count each slot's
    * entries and once to place them.
    */
  def apply(count: Int, n: Int)(cover: (Int, Int => Unit) => Unit): Slots = {
    val starts = new Array[Int](count + 1)
    for (e <- 0 until n) cover(e, s => starts(s + 1) += 1)
    for (s <- 0 until count) starts(s + 1) += starts(s)
    val ids = new Array[Int](starts(count))
    val next = java.util.Arrays.copyOf(starts, count)
    for (e <- 0 until n) cover(e, s => { ids(next(s)) = e; next(s) += 1 })
    new Slots(starts, ids)
  }
}
