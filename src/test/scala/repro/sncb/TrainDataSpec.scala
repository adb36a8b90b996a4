package repro.sncb

import org.apache.spark.sql.functions._

import repro.{SparkSpec, TestData}

class TrainDataSpec extends SparkSpec {

  private lazy val ev = TestData.events002

  test("row count and schema") {
    assert(ev.count() == 12000L)
    assert(ev.columns.toSeq == Seq("id", "train", "seq", "ts_ms", "lon", "lat",
      "speed_kmh", "battery_v", "temp_c", "brake_bar", "noise_db",
      "passengers", "alert_type"))
  }

  test("generation is deterministic in (sf, seed)") {
    val a = TrainData.events(spark, 0.0005, seed = 42).collect().map(_.toSeq)
    val b = TrainData.events(spark, 0.0005, seed = 42).collect().map(_.toSeq)
    assert(a.toSeq == b.toSeq)
  }

  test("different seeds change sensor noise but not the route") {
    val a = TrainData.events(spark, 0.0005, seed = 1)
      .select("id", "lon", "lat", "battery_v").collect()
    val b = TrainData.events(spark, 0.0005, seed = 2)
      .select("id", "lon", "lat", "battery_v").collect()
    assert(a.map(r => (r.getDouble(1), r.getDouble(2))).toSeq ==
      b.map(r => (r.getDouble(1), r.getDouble(2))).toSeq, "route is seed-independent")
    assert(a.map(_.getDouble(3)).toSeq != b.map(_.getDouble(3)).toSeq,
      "sensor noise is seed-dependent")
  }

  test("six trains, one event per train-second, contiguous timestamps") {
    assert(ev.select("train").distinct().count() == 6)
    val perTrain = ev.groupBy("train").count().collect().map(_.getLong(1)).toSet
    assert(perTrain == Set(2000L))
    val ts = ev.where(col("train") === 0).select("ts_ms")
      .orderBy("ts_ms").collect().map(_.getLong(0))
    assert(ts.zip(ts.tail).forall(p => p._2 - p._1 == 1000L))
  }

  test("positions stay inside the network frame") {
    val r = ev.agg(min("lon"), max("lon"), min("lat"), max("lat")).head()
    assert(r.getDouble(0) >= RailNetwork.LonMin && r.getDouble(1) <= RailNetwork.LonMax)
    assert(r.getDouble(2) >= RailNetwork.LatMin && r.getDouble(3) <= RailNetwork.LatMax)
  }

  test("speed is zero exactly during planted stop episodes") {
    val bad = ev.where(
      (col("seq") % (lit(900L) + col("train") * 60L) < TrainData.StopLen) =!=
        (col("speed_kmh") === 0.0)).count()
    assert(bad == 0)
  }

  test("position freezes while stopped") {
    val t0 = ev.where(col("train") === 0 && col("seq") < 120)
      .select("lon", "lat").distinct().count()
    assert(t0 == 1, "train 0 is stopped for its first 120 s")
  }

  test("moving speed is always well above the stop threshold") {
    val minMoving = ev.where(col("speed_kmh") > 0)
      .agg(min("speed_kmh")).head().getDouble(0)
    assert(minMoving > 5.0)
  }

  test("battery voltage tracks the predefined curve except for faults") {
    val dev = ev.withColumn("dev",
      abs(col("battery_v") - TrainData.expectedBatteryV(col("seq"))))
    val nominal = dev.where(col("dev") <= 0.11).count()
    val faulty = dev.where(col("dev") > 1.5).count()
    assert(nominal > 11500, s"nominal rows: $nominal")
    assert(faulty > 0 && faulty < 300, s"fault rows: $faulty")
  }

  test("brake pressure has planted persistent-low and emergency episodes") {
    val low = ev.where(col("brake_bar") < 4.0 && col("brake_bar") >= 2.0).count()
    val emergency = ev.where(col("brake_bar") < 2.0).count()
    assert(low > 100, s"low-pressure rows: $low")
    assert(emergency > 0 && emergency < 200, s"emergency rows: $emergency")
  }

  test("noise correlates with speed") {
    val r = ev.agg(corr("speed_kmh", "noise_db")).head().getDouble(0)
    assert(r > 0.7, s"corr(speed, noise) = $r")
  }

  test("passenger counts are within physical bounds and exceed capacity at peaks") {
    val r = ev.agg(min("passengers"), max("passengers")).head()
    assert(r.getInt(0) >= 0)
    assert(r.getInt(1) > TrainData.Capacity, "peaks exceed seat capacity")
    assert(r.getInt(1) <= 700)
  }

  test("alert stream contains both SPEED and EQUIP alerts") {
    val kinds = ev.where(col("alert_type").isNotNull)
      .select("alert_type").distinct().collect().map(_.getString(0)).toSet
    assert(kinds == Set("SPEED", "EQUIP"))
  }

  test("events fall inside zones of every kind (the demo's geofences fire)") {
    val zones = TestData.zones
    val hits = TestData.events01
      .join(zones, expr("st_in_box(lon, lat, xmin, xmax, ymin, ymax)"))
      .select("kind").distinct().collect().map(_.getString(0)).toSet
    assert(Set("station", "maintenance", "curve", "neighbourhood").subsetOf(hits),
      s"zone kinds hit: $hits")
  }

  test("weather: full grid coverage per hour and valid domains") {
    val w = TestData.weather
    assert(w.count() == RailNetwork.CellsX.toLong * RailNetwork.CellsY * 4)
    val conds = w.select("condition").distinct().collect().map(_.getInt(0)).toSet
    assert(conds.subsetOf(Set(0, 1, 2, 3)) && conds.contains(0))
    val sev = w.agg(min("severity"), max("severity")).head()
    assert(sev.getDouble(0) >= 0.0 && sev.getDouble(1) < 1.0)
  }

  test("every event joins to exactly one weather cell-hour") {
    val ev01 = TestData.events002
    val joined = repro.core.Geofencing.weatherSpeedZones(ev01, TestData.weather)
    // The join itself must not drop events: verify via the inner join count
    // before the violation filter by joining on the derived keys here.
    val keys = ev01
      .withColumn("cell_x", floor((col("lon") - RailNetwork.LonMin) / RailNetwork.CellLon).cast("int"))
      .withColumn("cell_y", floor((col("lat") - RailNetwork.LatMin) / RailNetwork.CellLat).cast("int"))
      .withColumn("hour_ms", lit(TrainData.T0) + floor((col("ts_ms") - TrainData.T0) / 3600000L) * 3600000L)
    val n = keys.join(TestData.weather, Seq("cell_x", "cell_y", "hour_ms")).count()
    assert(n == ev01.count(), s"joined $n of ${ev01.count()} events")
    assert(joined.count() <= n)
  }
}
