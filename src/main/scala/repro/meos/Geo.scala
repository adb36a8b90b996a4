package repro.meos

/** Planar geometry over (lon, lat) degrees, MEOS-style.
  *
  * MEOS stores temporal points in a projected SRID; the SNCB demo runs
  * over Belgium, where an equirectangular projection around lat 50.8°N
  * is accurate to well under 1% for the distances the queries use
  * (geofence radii of a few km). We keep coordinates in degrees and
  * convert degree deltas to meters with fixed per-axis scale factors so
  * every function is a pure, oracle-reproducible arithmetic expression.
  */
object Geo {

  /** Meters per degree of latitude (WGS84, mid-latitudes). */
  val MetersPerDegLat: Double = 110574.0

  /** Meters per degree of longitude at the reference latitude 50.8°N. */
  val MetersPerDegLon: Double = 111320.0 * math.cos(math.toRadians(50.8))

  /** Squared planar distance in meters between two lon/lat points. */
  def dist2Meters(lon1: Double, lat1: Double, lon2: Double, lat2: Double): Double = {
    val dx = (lon2 - lon1) * MetersPerDegLon
    val dy = (lat2 - lat1) * MetersPerDegLat
    dx * dx + dy * dy
  }

  /** Planar distance in meters between two lon/lat points. */
  def distMeters(lon1: Double, lat1: Double, lon2: Double, lat2: Double): Double =
    math.sqrt(dist2Meters(lon1, lat1, lon2, lat2))

  /** True iff the two points are within `d` meters of each other. */
  def dWithin(lon1: Double, lat1: Double, lon2: Double, lat2: Double, d: Double): Boolean =
    dist2Meters(lon1, lat1, lon2, lat2) <= d * d

  /** True iff (lon, lat) lies in the closed box [xmin, xmax] x [ymin, ymax]. */
  def inBox(lon: Double, lat: Double,
            xmin: Double, xmax: Double, ymin: Double, ymax: Double): Boolean =
    lon >= xmin && lon <= xmax && lat >= ymin && lat <= ymax

  /** [[inBox]] plus the closed time interval [tmin, tmax] for `t`. */
  def inStbox(lon: Double, lat: Double, t: Double,
              xmin: Double, xmax: Double, ymin: Double, ymax: Double,
              tmin: Double, tmax: Double): Boolean =
    inBox(lon, lat, xmin, xmax, ymin, ymax) && t >= tmin && t <= tmax

  /** Ray-casting point-in-polygon test, the function `st_point_in_poly`
    * calls.
    *
    * @param coords flattened ring [x0, y0, x1, y1, ...] in lon/lat; the
    *               ring is implicitly closed (last vertex joins first).
    *               Points exactly on an edge may fall on either side —
    *               zone polygons in this repo are sized so boundary
    *               events are irrelevant.
    */
  def pointInPolygon(lon: Double, lat: Double, coords: Array[Double]): Boolean = {
    require(coords.length >= 6 && coords.length % 2 == 0,
      s"polygon ring needs >=3 vertices as flat [x,y] pairs, got ${coords.length} values")
    val n = coords.length / 2
    var inside = false
    var i = 0
    var j = n - 1
    while (i < n) {
      val xi = coords(2 * i); val yi = coords(2 * i + 1)
      val xj = coords(2 * j); val yj = coords(2 * j + 1)
      val crosses = (yi > lat) != (yj > lat)
      if (crosses) {
        val xCross = xj + (lat - yj) / (yi - yj) * (xi - xj)
        if (lon < xCross) inside = !inside
      }
      j = i
      i += 1
    }
    inside
  }
}
