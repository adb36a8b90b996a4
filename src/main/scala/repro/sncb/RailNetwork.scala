package repro.sncb

import org.apache.spark.sql.{DataFrame, SparkSession}

/** A geofence zone of the synthetic Belgian-like rail network.
  *
  * Zones are axis-aligned lon/lat rectangles (the demo's geofences are
  * simple perimeters; rectangles also keep the DuckDB oracle SQL to
  * plain comparisons). `limit` is the zone's parameter: a speed limit
  * (km/h) for curve zones, a noise ceiling (dB) for neighbourhoods,
  * unused (0) otherwise.
  */
final case class Zone(zoneId: Int, kind: String,
                      xmin: Double, xmax: Double,
                      ymin: Double, ymax: Double,
                      limit: Double) {
  def cLon: Double = (xmin + xmax) / 2
  def cLat: Double = (ymin + ymax) / 2
}

/** Static description of the synthetic network the six trains run on.
  *
  * Each train `t` follows an ellipse (its "line") centred near the
  * middle of a 60 x 60 km frame; stations, workshops, maintenance and
  * curve zones are placed *on* the ellipses (via [[position]]) so every
  * train provably crosses zones of every kind. This substitutes the
  * proprietary SNCB network per DESIGN.md §3.
  */
object RailNetwork {

  /** Frame: lon in [LonMin, LonMax], lat in [LatMin, LatMax]. */
  val LonMin = 4.0; val LonMax = 4.9
  val LatMin = 50.5; val LatMax = 51.1

  val NumTrains = 6

  /** Route parameters: train t's ellipse centre and radii (degrees). */
  def centre(train: Int): (Double, Double) =
    (4.45 + 0.06 * (train % 3 - 1), 50.8 + 0.09 * (train / 3) - 0.045)
  val RadLon = 0.30
  val RadLat = 0.18

  /** Steps (moving seconds) per full lap of a route. */
  val LapSteps = 7200L

  /** Per-train phase offset (radians). */
  def phase(train: Int): Double = train * math.Pi / 3

  /** Position of train `t` after `progress` moving steps. */
  def position(train: Int, progress: Double): (Double, Double) = {
    val (cx, cy) = centre(train)
    val th = 2 * math.Pi * progress / LapSteps + phase(train)
    (cx + RadLon * math.cos(th), cy + RadLat * math.sin(th))
  }

  private def rectAround(lon: Double, lat: Double, halfMeters: Double,
                         id: Int, kind: String, limit: Double): Zone = {
    val dx = halfMeters / repro.meos.Geo.MetersPerDegLon
    val dy = halfMeters / repro.meos.Geo.MetersPerDegLat
    Zone(id, kind, lon - dx, lon + dx, lat - dy, lat + dy, limit)
  }

  /** Stations: 8 rectangles (~700 m half-width) planted on the routes
    * of trains 0..5 at varying lap fractions.
    */
  val stations: Seq[Zone] =
    (0 until 8).map { i =>
      val t = i % NumTrains
      val (lon, lat) = position(t, LapSteps * i / 8.0)
      rectAround(lon, lat, 700, 100 + i, "station", 0)
    }

  /** Workshops: 3 rectangles off/on route for Q5's nearest-workshop. */
  val workshops: Seq[Zone] = Seq(
    rectAround(position(1, LapSteps * 0.55)._1, position(1, LapSteps * 0.55)._2, 900, 200, "workshop", 0),
    rectAround(4.20, 50.62, 900, 201, "workshop", 0),
    rectAround(4.72, 51.01, 900, 202, "workshop", 0))

  /** Maintenance zones: 4 rectangles covering route arcs (Q1). */
  val maintenance: Seq[Zone] =
    (0 until 4).map { i =>
      val t = (i * 2) % NumTrains
      val (lon, lat) = position(t, LapSteps * (0.1 + 0.22 * i))
      rectAround(lon, lat, 2500, 300 + i, "maintenance", 0)
    }

  /** Curve / high-risk zones with speed limits (Q3): at the lon-extreme
    * ends of ellipses, where curvature is highest.
    */
  val curves: Seq[Zone] =
    (0 until 5).map { i =>
      val t = i % NumTrains
      val (lon, lat) = position(t, if (i % 2 == 0) 0.0 else LapSteps / 2.0)
      rectAround(lon, lat, 2000, 400 + i, "curve", 40 + 15 * i)
    }

  /** Noise-sensitive neighbourhoods with dB ceilings (Q2). */
  val neighbourhoods: Seq[Zone] =
    (0 until 6).map { i =>
      val (lon, lat) = position(i, LapSteps * (0.3 + 0.08 * i))
      rectAround(lon, lat, 3000, 500 + i, "neighbourhood", 68 + 2 * i)
    }

  /** All zones of the network. */
  val all: Seq[Zone] =
    stations ++ workshops ++ maintenance ++ curves ++ neighbourhoods

  /** An enlarged synthetic zone catalogue for the baseline benchmark
    * (Table 2): `n` extra maintenance/curve/neighbourhood zones planted
    * on the routes, deterministic in `seed`. Zone ids start at 1000.
    */
  def syntheticZones(n: Int, seed: Long = 7): Seq[Zone] = {
    val rnd = new scala.util.Random(seed)
    (0 until n).map { i =>
      val t = rnd.nextInt(NumTrains)
      val (lon, lat) = position(t, rnd.nextDouble() * LapSteps)
      val kind = Seq("maintenance", "curve", "neighbourhood")(i % 3)
      val half = 300.0 + rnd.nextDouble() * 1200.0
      val limit = kind match {
        case "curve" => 40.0 + rnd.nextInt(60)
        case "neighbourhood" => 65.0 + rnd.nextInt(15)
        case _ => 0.0
      }
      rectAround(lon, lat, half, 1000 + i, kind, limit)
    }
  }

  /** A zone list as a DataFrame (zone_id, kind, xmin, xmax, ymin, ymax, lim). */
  def toDf(spark: SparkSession, zones: Seq[Zone]): DataFrame = {
    import spark.implicits._
    zones.map(z => (z.zoneId, z.kind, z.xmin, z.xmax, z.ymin, z.ymax, z.limit))
      .toDF("zone_id", "kind", "xmin", "xmax", "ymin", "ymax", "lim")
  }

  /** Weather grid: cells of CellLon x CellLat degrees over the frame. */
  val CellLon = 0.09
  val CellLat = 0.06
  val CellsX: Int = math.ceil((LonMax - LonMin) / CellLon).toInt
  val CellsY: Int = math.ceil((LatMax - LatMin) / CellLat).toInt

  /** The network's zones as a DataFrame ([[toDf]] of [[all]]). */
  def zonesDf(spark: SparkSession): DataFrame = toDf(spark, all)
}
