package repro.sncb

import repro.SparkSpec
import repro.meos.Geo

class RailNetworkSpec extends SparkSpec {

  test("zone catalogue has the expected composition") {
    val byKind = RailNetwork.all.groupBy(_.kind).view.mapValues(_.size).toMap
    assert(byKind == Map("station" -> 8, "workshop" -> 3,
      "maintenance" -> 4, "curve" -> 5, "neighbourhood" -> 6))
  }

  test("zone ids are unique") {
    val ids = RailNetwork.all.map(_.zoneId)
    assert(ids.distinct.length == ids.length)
  }

  test("all zones are non-degenerate and inside the frame") {
    RailNetwork.all.foreach { z =>
      assert(z.xmin < z.xmax && z.ymin < z.ymax, s"zone ${z.zoneId}")
      assert(z.xmin > RailNetwork.LonMin - 0.2 && z.xmax < RailNetwork.LonMax + 0.2)
      assert(z.ymin > RailNetwork.LatMin - 0.2 && z.ymax < RailNetwork.LatMax + 0.2)
    }
  }

  test("curve zones carry speed limits, neighbourhoods carry dB ceilings") {
    assert(RailNetwork.curves.forall(z => z.limit >= 40 && z.limit <= 110))
    assert(RailNetwork.neighbourhoods.forall(z => z.limit >= 68 && z.limit <= 80))
  }

  test("every route passes through at least one station geofence") {
    (0 until RailNetwork.NumTrains).foreach { t =>
      val hits = (0 until RailNetwork.LapSteps.toInt by 10).exists { p =>
        val (lon, lat) = RailNetwork.position(t, p.toDouble)
        RailNetwork.stations.exists(z =>
          lon >= z.xmin && lon <= z.xmax && lat >= z.ymin && lat <= z.ymax)
      }
      assert(hits, s"train $t never enters a station zone")
    }
  }

  test("every route passes through at least one curve zone") {
    (0 until RailNetwork.NumTrains).foreach { t =>
      val hits = (0 until RailNetwork.LapSteps.toInt by 10).exists { p =>
        val (lon, lat) = RailNetwork.position(t, p.toDouble)
        RailNetwork.curves.exists(z =>
          lon >= z.xmin && lon <= z.xmax && lat >= z.ymin && lat <= z.ymax)
      }
      assert(hits, s"train $t never enters a curve zone")
    }
  }

  test("some route crosses a maintenance zone and a neighbourhood") {
    def crossed(zones: Seq[Zone]): Boolean =
      (0 until RailNetwork.NumTrains).exists { t =>
        (0 until RailNetwork.LapSteps.toInt by 10).exists { p =>
          val (lon, lat) = RailNetwork.position(t, p.toDouble)
          zones.exists(z =>
            lon >= z.xmin && lon <= z.xmax && lat >= z.ymin && lat <= z.ymax)
        }
      }
    assert(crossed(RailNetwork.maintenance))
    assert(crossed(RailNetwork.neighbourhoods))
  }

  test("position is periodic in the lap length") {
    val (a1, b1) = RailNetwork.position(2, 100.0)
    val (a2, b2) = RailNetwork.position(2, 100.0 + RailNetwork.LapSteps)
    assert(math.abs(a1 - a2) < 1e-9 && math.abs(b1 - b2) < 1e-9)
  }

  test("distinct trains follow distinct routes") {
    val p0 = RailNetwork.position(0, 0.0)
    val p3 = RailNetwork.position(3, 0.0)
    assert(Geo.distMeters(p0._1, p0._2, p3._1, p3._2) > 1000.0)
  }

  test("zonesDf mirrors the catalogue") {
    val df = RailNetwork.zonesDf(spark)
    assert(df.count() == RailNetwork.all.size)
    assert(df.columns.toSeq ==
      Seq("zone_id", "kind", "xmin", "xmax", "ymin", "ymax", "lim"))
  }
}
