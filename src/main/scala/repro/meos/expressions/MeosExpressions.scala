package repro.meos.expressions

import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.analysis.TypeCheckResult
import org.apache.spark.sql.catalyst.expressions._
import org.apache.spark.sql.catalyst.expressions.codegen._
import org.apache.spark.sql.catalyst.expressions.codegen.Block._
import org.apache.spark.sql.catalyst.expressions.objects.{Invoke, StaticInvoke}
import org.apache.spark.sql.catalyst.util.ArrayData
import org.apache.spark.sql.types._

import repro.meos.{Geo, WeatherIndex, ZoneIndex}

/** Catalyst expressions mirroring NebulaMEOS's custom operators.
  *
  * The paper integrates MEOS into NebulaStream's expression framework
  * via dynamically registered operators (e.g. `MeosAtStbox_Expression`
  * wrapping `edwithin` and the spatiotemporal-box test), each applied
  * to one event, a temporal-point instant. Here the same predicates are
  * Catalyst `Expression`s registered in the session `FunctionRegistry`
  * by [[repro.core.NebulaMeos.setup]]. The five MEOS scalars are
  * [[GeoCall]]s: the optimizer replaces each with a call to the
  * [[repro.meos.Geo]] function that defines it, which runs inside
  * whole-stage codegen and answers exactly as the Scala code does. The
  * geofence lookup `st_zones` and the weather lookup `st_weather` are
  * [[TableLookup]]s with their own `doGenCode`, because each builds an
  * index of its constant table once per expression instance. They are
  * the lookups behind [[repro.meos.ZoneIndex.zonesAt]] and Q4, so those
  * need this registration on the session.
  *
  * All yield null when a point coordinate, an operand or a key is null;
  * the lookups read a null table as an empty one.
  */
sealed abstract class GeoCall(override val prettyName: String, fn: String, resultType: DataType)
    extends RuntimeReplaceable with ExpectsInputTypes {
  /** Operands are numbers or an untyped NULL, cast to double. Any other
    * operand is checked against DOUBLE, so a string, timestamp, date or
    * boolean fails analysis with `DATATYPE_MISMATCH`.
    */
  override def inputTypes: Seq[DataType] = children.map(_.dataType match {
    case number @ (_: NumericType | NullType) => number
    case _ => DoubleType
  })

  /** The arguments of `Geo.fn`: each operand cast to double. */
  protected def operands: Seq[Expression] = children.map(Cast(_, DoubleType))

  /** `Geo.fn(operands)`; any null operand gives null. */
  override lazy val replacement: Expression =
    StaticInvoke(Geo.getClass, resultType, fn, operands, returnNullable = false)
}

/** `st_distance(lon1, lat1, lon2, lat2)` — planar distance in meters. */
case class StDistance(children: Seq[Expression])
    extends GeoCall("st_distance", "distMeters", DoubleType) {
  require(children.length == 4, "st_distance(lon1, lat1, lon2, lat2)")
  override protected def withNewChildrenInternal(c: IndexedSeq[Expression]): Expression =
    copy(children = c)
}

/** `ed_within(lon1, lat1, lon2, lat2, dMeters)` — MEOS `edwithin` for
  * point arguments: are the two positions within `d` meters?
  */
case class EdWithin(children: Seq[Expression])
    extends GeoCall("ed_within", "dWithin", BooleanType) {
  require(children.length == 5, "ed_within(lon1, lat1, lon2, lat2, dMeters)")
  override protected def withNewChildrenInternal(c: IndexedSeq[Expression]): Expression =
    copy(children = c)
}

/** `st_in_stbox(lon, lat, ts, xmin, xmax, ymin, ymax, tmin, tmax)` —
  * is the spatiotemporal point inside the STBox (closed bounds)?
  * The spine of the paper's `MeosAtStbox_Expression` for instant input.
  */
case class StInStbox(children: Seq[Expression])
    extends GeoCall("st_in_stbox", "inStbox", BooleanType) {
  require(children.length == 9,
    "st_in_stbox(lon, lat, ts, xmin, xmax, ymin, ymax, tmin, tmax)")
  override protected def withNewChildrenInternal(c: IndexedSeq[Expression]): Expression =
    copy(children = c)
}

/** `st_in_box(lon, lat, xmin, xmax, ymin, ymax)` — purely spatial box
  * containment (the geofence fast path).
  */
case class StInBox(children: Seq[Expression])
    extends GeoCall("st_in_box", "inBox", BooleanType) {
  require(children.length == 6, "st_in_box(lon, lat, xmin, xmax, ymin, ymax)")
  override protected def withNewChildrenInternal(c: IndexedSeq[Expression]): Expression =
    copy(children = c)
}

/** `st_point_in_poly(lon, lat, ring)` — ray-casting containment where
  * `ring` is a flattened array of numbers [x0, y0, x1, y1, ...], read
  * as a primitive `double[]`.
  */
case class StPointInPoly(children: Seq[Expression])
    extends GeoCall("st_point_in_poly", "pointInPolygon", BooleanType) {
  require(children.length == 3, "st_point_in_poly(lon, lat, ringArray)")
  private val ringType = ArrayType(DoubleType)
  /** A ring of any numbers, or an untyped NULL, is cast to `array<double>`. */
  override def inputTypes: Seq[DataType] = super.inputTypes.take(2) :+
    (children(2).dataType match {
      case numbers @ (ArrayType(_: NumericType, _) | NullType) => numbers
      case _ => ringType
    })
  override protected def operands: Seq[Expression] =
    children.take(2).map(Cast(_, DoubleType)) :+ Invoke(Cast(children(2), ringType),
      "toDoubleArray", ObjectType(classOf[Array[Double]]), returnNullable = false)
  override protected def withNewChildrenInternal(c: IndexedSeq[Expression]): Expression =
    copy(children = c)
}

/** A lookup of its keys, every operand but the last, in the constant
  * table that is the last operand, through an index of the table built
  * once per expression instance: null when a key is null, else the
  * index's `at(keys)`, in generated code as in `eval`. Analysis rejects
  * a table that is not a constant; plans name the table by its size.
  */
sealed abstract class TableLookup(override val prettyName: String, keyTypes: Seq[DataType],
                                  tableType: DataType, override val dataType: DataType)
    extends Expression with ImplicitCastInputTypes with Serializable {
  /** The index of the table; its `at` method takes the keys. */
  protected def index: AnyRef
  /** `index.at(keys)`, for keys that are not null. */
  protected def at(keys: Seq[Any]): Any
  /** The table's constant value; null reads as an empty table. */
  protected def table: ArrayData = children.last.eval().asInstanceOf[ArrayData]

  override def inputTypes: Seq[DataType] = keyTypes :+ tableType
  override def nullable: Boolean = children.init.exists(_.nullable)

  override def checkInputDataTypes(): TypeCheckResult = super.checkInputDataTypes() match {
    case TypeCheckResult.TypeCheckSuccess if !children.last.foldable =>
      TypeCheckResult.TypeCheckFailure(
        s"$prettyName table must be a constant, got ${children.last.sql}")
    case result => result
  }

  override def toString: String = children.last match {
    case Literal(rows: ArrayData, _) =>
      s"$prettyName(${children.init.mkString(", ")}, ${rows.numElements()} rows)"
    case _ => s"$prettyName(${children.mkString(", ")})"
  }

  override def eval(input: InternalRow): Any = {
    val keys = children.init.map(_.eval(input))
    if (keys.contains(null)) null else at(keys)
  }

  override protected def doGenCode(ctx: CodegenContext, ev: ExprCode): ExprCode = {
    val idx = ctx.addReferenceObj(s"${prettyName}Index", index)
    val keys = children.init.map(_.genCode(ctx))
    ev.copy(code = code"""
      ${keys.map(_.code).reduce(_ + _)}
      boolean ${ev.isNull} = ${keys.map(_.isNull).mkString(" || ")};
      ${CodeGenerator.javaType(dataType)} ${ev.value} =
        ${ev.isNull} ? null : $idx.at(${keys.map(_.value).mkString(", ")});""")
  }
}

/** `st_zones(lon, lat, catalogue)` — every zone of a constant catalogue
  * (a [[repro.meos.ZoneIndex.CatalogueType]] value) whose closed
  * rectangle contains the point, as `array<struct<zone_id:int,
  * lim:double>>`, from the primitive [[repro.meos.ZoneIndex.Grid]]. Null
  * lon or lat yields null; NaN or a position outside every zone yields
  * an empty array.
  */
case class StZones(children: Seq[Expression]) extends TableLookup("st_zones",
    Seq(DoubleType, DoubleType), ZoneIndex.CatalogueType, ZoneIndex.ZonesType) {
  require(children.length == 3, "st_zones(lon, lat, catalogue)")
  @transient override protected lazy val index: ZoneIndex.Grid = ZoneIndex.Grid(table)
  override protected def at(keys: Seq[Any]): Any =
    index.at(keys(0).asInstanceOf[Double], keys(1).asInstanceOf[Double])
  override protected def withNewChildrenInternal(c: IndexedSeq[Expression]): Expression =
    copy(children = c)
}

/** `st_weather(cell_x, cell_y, hour_ms, table)` — the weather of a cell
  * and hour in a constant table (a [[repro.meos.WeatherIndex.TableType]]
  * value), as `array<struct<condition:int, severity:double>>`: one
  * element per row with that cell and hour, as an inner join on the
  * three keys matches them, from the primitive
  * [[repro.meos.WeatherIndex.Index]]. A null key yields null; a cell or
  * hour the table lacks, an empty array.
  */
case class StWeather(children: Seq[Expression]) extends TableLookup("st_weather",
    Seq(IntegerType, IntegerType, LongType), WeatherIndex.TableType, WeatherIndex.ResultType) {
  require(children.length == 4, "st_weather(cell_x, cell_y, hour_ms, table)")
  @transient override protected lazy val index: WeatherIndex.Index = WeatherIndex.Index(table)
  override protected def at(keys: Seq[Any]): Any =
    index.at(keys(0).asInstanceOf[Int], keys(1).asInstanceOf[Int], keys(2).asInstanceOf[Long])
  override protected def withNewChildrenInternal(c: IndexedSeq[Expression]): Expression =
    copy(children = c)
}
