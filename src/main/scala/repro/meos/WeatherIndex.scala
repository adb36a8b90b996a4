package repro.meos

import org.apache.spark.sql.Encoders
import org.apache.spark.sql.catalyst.expressions.GenericInternalRow
import org.apache.spark.sql.catalyst.util.{ArrayData, GenericArrayData}
import org.apache.spark.sql.types.{ArrayType, DataType}

/** Index of a weather table — the weather of each grid cell and hour,
  * Q4's OpenMeteo substitute — kept inside the operator as the zone
  * [[ZoneIndex.Grid]] is, so that events look their weather up through
  * the `st_weather` expression ([[repro.meos.expressions.StWeather]])
  * instead of a join.
  */
object WeatherIndex {

  /** One row of a weather table: the weather of a cell and hour. */
  final case class Entry(cell_x: Option[Int], cell_y: Option[Int], hour_ms: Option[Long],
                         condition: Option[Int], severity: Option[Double])

  /** Type of the `st_weather` table argument, one [[Entry]] per row. */
  val TableType: ArrayType = ArrayType(Encoders.product[Entry].schema)

  /** Type of a lookup result: the weather of the matching rows. */
  val ResultType: ArrayType =
    DataType.fromDDL("array<struct<condition:int,severity:double>>").asInstanceOf[ArrayType]

  /** The table over flat primitive arrays: an open-addressing hash table
    * of its distinct (cell, hour) pairs, where position `i` holds pair
    * number `pairs(i) - 1` with cell `cells(i)` and hour `hours(i)`, or
    * nothing when `pairs(i)` is 0; `rows` holds each pair's rows, and
    * `conditions`, `severities` and `nulls` (bit 0: no condition, bit 1:
    * no severity) each row's weather.
    */
  final class Index private (cells: Array[Long], hours: Array[Long], pairs: Array[Int],
                             rows: Slots, conditions: Array[Int], severities: Array[Double],
                             nulls: Array[Byte]) extends Serializable {

    /** Each pair's result, built once per deserialized copy. */
    @transient private lazy val results: Array[ArrayData] =
      Array.tabulate(rows.starts.length - 1)(p => new GenericArrayData(
        Array.tabulate[Any](rows.starts(p + 1) - rows.starts(p)) { i =>
          val r = rows.ids(rows.starts(p) + i)
          new GenericInternalRow(Array[Any](if ((nulls(r) & 1) != 0) null else conditions(r),
            if ((nulls(r) & 2) != 0) null else severities(r)))
        }))

    /** The weather rows of (cellX, cellY, hourMs), as a [[ResultType]] value. */
    def at(cellX: Int, cellY: Int, hourMs: Long): ArrayData = {
      val i = find(cells, hours, pairs, cellKey(cellX, cellY), hourMs)
      if (pairs(i) == 0) Slots.NoMatch else results(pairs(i) - 1)
    }
  }

  private def cellKey(x: Int, y: Int): Long = (x.toLong << 32) | (y & 0xffffffffL)

  /** The position of (cell, hour) in the hash table, or, when it is not
    * there, the free position where it belongs.
    */
  private def find(cells: Array[Long], hours: Array[Long], pairs: Array[Int],
                   cell: Long, hour: Long): Int = {
    val h = (cell * 0x9e3779b97f4a7c15L ^ hour) * 0xc2b2ae3d27d4eb4fL
    var i = (h ^ (h >>> 32)).toInt & (pairs.length - 1)
    while (pairs(i) != 0 && (cells(i) != cell || hours(i) != hour)) i = (i + 1) & (pairs.length - 1)
    i
  }

  object Index {
    /** Build the index of a [[TableType]] value (null: no rows), leaving
      * out rows with a null key: no key equals them.
      */
    def apply(table: ArrayData): Index = {
      val rows = Slots.structs(table, 5).filter(r => !(0 to 2).exists(r.isNullAt))
      // a power of two above twice the rows: at most half the positions are taken
      val size = Integer.highestOneBit(2 * rows.length + 1) << 1
      val (cells, hours, pairs) = (new Array[Long](size), new Array[Long](size), new Array[Int](size))
      var n = 0
      val pairOf = rows.map { r =>
        val (cell, hour) = (cellKey(r.getInt(0), r.getInt(1)), r.getLong(2))
        val i = find(cells, hours, pairs, cell, hour)
        if (pairs(i) == 0) { cells(i) = cell; hours(i) = hour; n += 1; pairs(i) = n }
        pairs(i) - 1
      }
      new Index(cells, hours, pairs, Slots(n, rows.length)((r, add) => add(pairOf(r))),
        rows.map(r => if (r.isNullAt(3)) 0 else r.getInt(3)),
        rows.map(r => if (r.isNullAt(4)) 0.0 else r.getDouble(4)),
        rows.map(r => ((if (r.isNullAt(3)) 1 else 0) | (if (r.isNullAt(4)) 2 else 0)).toByte))
    }
  }
}
