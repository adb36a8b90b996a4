package repro.meos

import org.scalacheck.{Gen, Prop, Test => SCTest}

import repro.SparkSpec

class GeoSpec extends SparkSpec {

  private val sq: Array[Double] = Array(0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0)

  private def check(p: Prop): Unit = {
    val r = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(200), p)
    assert(r.passed, r.status.toString)
  }

  test("distMeters of identical points is zero") {
    assert(Geo.distMeters(4.5, 50.8, 4.5, 50.8) == 0.0)
  }

  test("distMeters of one degree latitude is ~110.6 km") {
    val d = Geo.distMeters(4.5, 50.0, 4.5, 51.0)
    assert(math.abs(d - Geo.MetersPerDegLat) < 1e-6)
  }

  test("distMeters of one degree longitude is ~70.4 km at 50.8N") {
    val d = Geo.distMeters(4.0, 50.8, 5.0, 50.8)
    assert(math.abs(d - Geo.MetersPerDegLon) < 1e-6)
    assert(d > 70000 && d < 71000)
  }

  test("distMeters is symmetric") {
    check(Prop.forAll(Gen.choose(4.0, 5.0), Gen.choose(50.0, 51.0),
      Gen.choose(4.0, 5.0), Gen.choose(50.0, 51.0)) { (a, b, c, d) =>
      Geo.distMeters(a, b, c, d) == Geo.distMeters(c, d, a, b)
    })
  }

  test("distMeters satisfies the triangle inequality") {
    val g = Gen.zip(Gen.choose(4.0, 5.0), Gen.choose(50.0, 51.0))
    check(Prop.forAll(g, g, g) { case ((ax, ay), (bx, by), (cx, cy)) =>
      Geo.distMeters(ax, ay, cx, cy) <=
        Geo.distMeters(ax, ay, bx, by) + Geo.distMeters(bx, by, cx, cy) + 1e-9
    })
  }

  test("dWithin agrees with distMeters") {
    check(Prop.forAll(Gen.choose(4.0, 5.0), Gen.choose(50.0, 51.0),
      Gen.choose(4.0, 5.0), Gen.choose(50.0, 51.0), Gen.choose(0.0, 50000.0)) {
      (a, b, c, d, r) =>
        Geo.dWithin(a, b, c, d, r) == (Geo.distMeters(a, b, c, d) <= r)
    })
  }

  test("pointInPolygon: center of unit square") {
    assert(Geo.pointInPolygon(0.5, 0.5, sq))
  }

  test("pointInPolygon: outside unit square") {
    assert(!Geo.pointInPolygon(1.5, 0.5, sq))
    assert(!Geo.pointInPolygon(0.5, -0.5, sq))
    assert(!Geo.pointInPolygon(-0.1, 0.5, sq))
    assert(!Geo.pointInPolygon(0.5, 1.5, sq))
  }

  test("pointInPolygon: triangle") {
    val tri = Array(0.0, 0.0, 2.0, 0.0, 1.0, 2.0)
    assert(Geo.pointInPolygon(1.0, 0.5, tri))
    assert(!Geo.pointInPolygon(0.1, 1.5, tri))
    assert(!Geo.pointInPolygon(1.9, 1.5, tri))
  }

  test("pointInPolygon: concave (L-shaped) polygon") {
    // L shape: big square minus top-right quadrant.
    val l = Array(0.0, 0.0, 2.0, 0.0, 2.0, 1.0, 1.0, 1.0, 1.0, 2.0, 0.0, 2.0)
    assert(Geo.pointInPolygon(0.5, 1.5, l))
    assert(Geo.pointInPolygon(1.5, 0.5, l))
    assert(!Geo.pointInPolygon(1.5, 1.5, l)) // the notch
  }

  test("pointInPolygon: vertex order (CW vs CCW) does not matter") {
    val cw = Array(0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.0)
    assert(Geo.pointInPolygon(0.5, 0.5, cw))
    assert(!Geo.pointInPolygon(1.5, 0.5, cw))
  }

  test("pointInPolygon rejects malformed rings") {
    intercept[IllegalArgumentException](Geo.pointInPolygon(0, 0, Array(0.0, 0.0)))
    intercept[IllegalArgumentException](Geo.pointInPolygon(0, 0, Array(0.0, 0.0, 1.0, 1.0, 2.0)))
  }

  test("pointInPolygon on rectangle ring matches interval test") {
    check(Prop.forAll(Gen.choose(-0.5, 1.5), Gen.choose(-0.5, 1.5)) { (x, y) =>
      val interval = x > 0.0 && x < 1.0 && y > 0.0 && y < 1.0
      // Skip points exactly on the boundary (undefined for ray casting).
      val onBoundary = x == 0.0 || x == 1.0 || y == 0.0 || y == 1.0
      onBoundary || Geo.pointInPolygon(x, y, sq) == interval
    })
  }
}
