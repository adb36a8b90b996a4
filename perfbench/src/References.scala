package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.core.SensorEvent
import repro.sncb.{RailNetwork, TrainData}

/** Driver-side reference computations for the two queries whose
  * streaming formulation is the batch plan itself (Q4, Q6), so the gate
  * has an independent result to compare them with. Each follows the
  * query's definition in `repro.core`, row by row.
  */
object References {

  /** Q4: events faster than the limit their weather cell and hour suggest. */
  def weatherSpeedZones(spark: SparkSession, events: Seq[SensorEvent], weather: DataFrame): DataFrame = {
    import spark.implicits._
    val cells = weather.select("cell_x", "cell_y", "hour_ms", "condition", "severity").collect()
      .map(r => (r.getInt(0), r.getInt(1), r.getLong(2)) -> (r.getInt(3), r.getDouble(4))).toMap
    events.flatMap { e =>
      val cx = math.floor((e.lon - RailNetwork.LonMin) / RailNetwork.CellLon).toInt
      val cy = math.floor((e.lat - RailNetwork.LatMin) / RailNetwork.CellLat).toInt
      val hour = TrainData.T0 + math.floor((e.ts_ms - TrainData.T0) / 3600000.0).toLong * 3600000L
      cells.get((cx, cy, hour)).flatMap { case (condition, severity) =>
        val base = condition match { case 0 => 130.0; case 1 => 100.0; case 3 => 80.0; case _ => 60.0 }
        val suggested = base * (1.0 - severity * 0.3)
        if (e.speed_kmh > suggested)
          Some((e.id, e.train, e.ts_ms, condition, severity, e.speed_kmh, suggested))
        else None
      }
    }.toDF("id", "train", "ts_ms", "condition", "severity", "speed_kmh", "suggested_kmh")
  }

  /** Q6: 10-minute windows per train whose average load reaches capacity. */
  def heavyPassengerLoad(spark: SparkSession, events: Seq[SensorEvent]): DataFrame = {
    import spark.implicits._
    val windowMs = 600000L
    events.groupBy(e => (e.ts_ms / windowMs * windowMs, e.train)).toSeq.flatMap { case ((start, train), es) =>
      val avg = es.map(_.passengers.toDouble).sum / es.size
      val occupancy = avg / TrainData.Capacity
      if (occupancy >= 1.0) Some((start, train, es.size.toLong, avg, es.map(_.passengers).max, occupancy))
      else None
    }.toDF("win_start", "train", "n_events", "avg_pax", "max_pax", "occupancy")
  }
}
