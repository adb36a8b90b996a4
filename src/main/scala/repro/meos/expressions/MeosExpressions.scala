package repro.meos.expressions

import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.analysis.TypeCheckResult
import org.apache.spark.sql.catalyst.expressions.{Expression, ImplicitCastInputTypes, Literal}
import org.apache.spark.sql.catalyst.expressions.codegen._
import org.apache.spark.sql.catalyst.expressions.codegen.Block._
import org.apache.spark.sql.catalyst.util.ArrayData
import org.apache.spark.sql.types._

import repro.meos.{Geo, ZoneIndex}

/** Catalyst expressions mirroring NebulaMEOS's custom operators.
  *
  * The paper integrates MEOS into NebulaStream's expression framework
  * via dynamically registered operators (e.g. `MeosAtStbox_Expression`
  * wrapping `edwithin` / `tpoint_at_stbox`). Here the same predicates
  * are Catalyst `Expression`s registered in the session
  * `FunctionRegistry` by [[repro.meos.MeosFunctions]]. The arithmetic
  * predicates are interpreted via `CodegenFallback` — NebulaStream's
  * non-compiled plugin path; `st_point_in_poly` and the geofence lookup
  * `st_zones` have a `doGenCode` and run inside whole-stage codegen.
  * `st_zones` is the lookup behind [[repro.meos.ZoneIndex.zonesAt]], so
  * that column needs [[repro.core.NebulaMeos.setup]] on the session.
  *
  * All yield null when a point coordinate or an operand is null;
  * `st_zones` reads a null catalogue as an empty one.
  */
abstract class MeosScalarExpression extends Expression with CodegenFallback {
  override def nullable: Boolean = true

  /** Evaluate with all children non-null. */
  protected def evalNotNull(vals: IndexedSeq[Any]): Any

  override def eval(input: InternalRow): Any = {
    val vals = children.map(_.eval(input)).toIndexedSeq
    if (vals.exists(_ == null)) null else evalNotNull(vals)
  }

  protected def d(v: Any): Double = v match {
    case x: Double => x
    case x: Float => x.toDouble
    case x: Int => x.toDouble
    case x: Long => x.toDouble
    case x: Short => x.toDouble
    case x: Byte => x.toDouble
    case x: Decimal => x.toDouble // SQL literals like 4.40 arrive as DECIMAL
    case x => throw new IllegalArgumentException(s"expected numeric, got $x")
  }
}

/** `st_distance(lon1, lat1, lon2, lat2)` — planar distance in meters. */
case class StDistance(children: Seq[Expression]) extends MeosScalarExpression {
  require(children.length == 4, "st_distance(lon1, lat1, lon2, lat2)")
  override def dataType: DataType = DoubleType
  override protected def evalNotNull(v: IndexedSeq[Any]): Any =
    Geo.distMeters(d(v(0)), d(v(1)), d(v(2)), d(v(3)))
  override protected def withNewChildrenInternal(c: IndexedSeq[Expression]): Expression =
    copy(children = c)
}

/** `ed_within(lon1, lat1, lon2, lat2, dMeters)` — MEOS `edwithin` for
  * point arguments: are the two positions within `d` meters?
  */
case class EdWithin(children: Seq[Expression]) extends MeosScalarExpression {
  require(children.length == 5, "ed_within(lon1, lat1, lon2, lat2, dMeters)")
  override def dataType: DataType = BooleanType
  override protected def evalNotNull(v: IndexedSeq[Any]): Any =
    Geo.dWithin(d(v(0)), d(v(1)), d(v(2)), d(v(3)), d(v(4)))
  override protected def withNewChildrenInternal(c: IndexedSeq[Expression]): Expression =
    copy(children = c)
}

/** `st_in_stbox(lon, lat, ts, xmin, xmax, ymin, ymax, tmin, tmax)` —
  * is the spatiotemporal point inside the STBox (closed bounds)?
  * The spine of the paper's `MeosAtStbox_Expression` for instant input.
  */
case class StInStbox(children: Seq[Expression]) extends MeosScalarExpression {
  require(children.length == 9,
    "st_in_stbox(lon, lat, ts, xmin, xmax, ymin, ymax, tmin, tmax)")
  override def dataType: DataType = BooleanType
  override protected def evalNotNull(v: IndexedSeq[Any]): Any = {
    val lon = d(v(0)); val lat = d(v(1)); val ts = d(v(2))
    lon >= d(v(3)) && lon <= d(v(4)) &&
      lat >= d(v(5)) && lat <= d(v(6)) &&
      ts >= d(v(7)) && ts <= d(v(8))
  }
  override protected def withNewChildrenInternal(c: IndexedSeq[Expression]): Expression =
    copy(children = c)
}

/** `st_in_box(lon, lat, xmin, xmax, ymin, ymax)` — purely spatial box
  * containment (the geofence fast path).
  */
case class StInBox(children: Seq[Expression]) extends MeosScalarExpression {
  require(children.length == 6, "st_in_box(lon, lat, xmin, xmax, ymin, ymax)")
  override def dataType: DataType = BooleanType
  override protected def evalNotNull(v: IndexedSeq[Any]): Any = {
    val lon = d(v(0)); val lat = d(v(1))
    lon >= d(v(2)) && lon <= d(v(3)) && lat >= d(v(4)) && lat <= d(v(5))
  }
  override protected def withNewChildrenInternal(c: IndexedSeq[Expression]): Expression =
    copy(children = c)
}

/** `st_point_in_poly(lon, lat, ring)` — ray-casting containment where
  * `ring` is a flattened array<double> of [x0, y0, x1, y1, ...].
  */
case class StPointInPoly(children: Seq[Expression])
    extends Expression with ImplicitCastInputTypes {
  require(children.length == 3, "st_point_in_poly(lon, lat, ringArray)")
  override def inputTypes: Seq[DataType] =
    Seq(DoubleType, DoubleType, ArrayType(DoubleType))
  override def dataType: DataType = BooleanType
  override def nullable: Boolean = children.exists(_.nullable)

  override def eval(input: InternalRow): Any = {
    val v = children.map(_.eval(input))
    if (v.contains(null)) null
    else Geo.pointInPolygon(v(0).asInstanceOf[Double], v(1).asInstanceOf[Double],
      v(2).asInstanceOf[ArrayData].toDoubleArray())
  }

  override protected def doGenCode(ctx: CodegenContext, ev: ExprCode): ExprCode = {
    val Seq(lon, lat, ring) = children.map(_.genCode(ctx))
    ev.copy(code = code"""
      ${lon.code}
      ${lat.code}
      ${ring.code}
      boolean ${ev.isNull} = ${lon.isNull} || ${lat.isNull} || ${ring.isNull};
      boolean ${ev.value} = !${ev.isNull} && ${Geo.getClass.getName.stripSuffix("$")}.pointInPolygon(
        ${lon.value}, ${lat.value}, ${ring.value}.toDoubleArray());""")
  }

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
