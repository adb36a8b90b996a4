package repro.meos.expressions

import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.analysis.TypeCheckResult
import org.apache.spark.sql.catalyst.expressions._
import org.apache.spark.sql.catalyst.expressions.codegen._
import org.apache.spark.sql.catalyst.expressions.codegen.Block._
import org.apache.spark.sql.catalyst.expressions.objects.{Invoke, StaticInvoke}
import org.apache.spark.sql.catalyst.util.ArrayData
import org.apache.spark.sql.types._

import repro.meos.{Geo, ZoneIndex}

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
  * geofence lookup `st_zones` keeps its own `doGenCode`, because it
  * builds its grid once per expression instance. It is the lookup
  * behind [[repro.meos.ZoneIndex.zonesAt]], so that column needs this
  * registration on the session.
  *
  * All yield null when a point coordinate or an operand is null;
  * `st_zones` reads a null catalogue as an empty one.
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

/** `st_zones(lon, lat, catalogue)` — every zone of a constant catalogue
  * (a [[repro.meos.ZoneIndex.CatalogueType]] value) whose closed
  * rectangle contains the point, as `array<struct<zone_id:int,
  * lim:double>>`: the geofence lookup as one engine expression over the
  * primitive [[repro.meos.ZoneIndex.Grid]], built once per expression
  * instance. Null lon or lat yields null; NaN or a position outside
  * every zone yields an empty array.
  */
case class StZones(children: Seq[Expression])
    extends Expression with ImplicitCastInputTypes {
  require(children.length == 3, "st_zones(lon, lat, catalogue)")
  override def prettyName: String = "st_zones"
  override def inputTypes: Seq[DataType] =
    Seq(DoubleType, DoubleType, ZoneIndex.CatalogueType)
  override def dataType: DataType = ZoneIndex.ZonesType
  override def nullable: Boolean = children(0).nullable || children(1).nullable

  override def checkInputDataTypes(): TypeCheckResult = super.checkInputDataTypes() match {
    case TypeCheckResult.TypeCheckSuccess if !children(2).foldable =>
      TypeCheckResult.TypeCheckFailure(
        s"st_zones catalogue must be a constant, got ${children(2).sql}")
    case result => result
  }

  /** Plans name the catalogue by its size: it can hold thousands of zones. */
  override def toString: String = children(2) match {
    case Literal(zones: ArrayData, _) =>
      s"$prettyName(${children(0)}, ${children(1)}, ${zones.numElements()} zones)"
    case catalogue => s"$prettyName(${children(0)}, ${children(1)}, $catalogue)"
  }

  @transient private lazy val grid =
    ZoneIndex.Grid(children(2).eval().asInstanceOf[ArrayData])

  override def eval(input: InternalRow): Any = {
    val lon = children(0).eval(input)
    val lat = children(1).eval(input)
    if (lon == null || lat == null) null
    else grid.at(lon.asInstanceOf[Double], lat.asInstanceOf[Double])
  }

  override protected def doGenCode(ctx: CodegenContext, ev: ExprCode): ExprCode = {
    val g = ctx.addReferenceObj("zoneGrid", grid)
    val lon = children(0).genCode(ctx)
    val lat = children(1).genCode(ctx)
    ev.copy(code = code"""
      ${lon.code}
      ${lat.code}
      boolean ${ev.isNull} = ${lon.isNull} || ${lat.isNull};
      ${CodeGenerator.javaType(dataType)} ${ev.value} =
        ${ev.isNull} ? null : $g.at(${lon.value}, ${lat.value});""")
  }

  override protected def withNewChildrenInternal(c: IndexedSeq[Expression]): Expression =
    copy(children = c)
}
