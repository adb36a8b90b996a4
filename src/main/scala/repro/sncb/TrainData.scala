package repro.sncb

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Synthetic SNCB train sensor streams (DESIGN.md §3 substitution for
  * the proprietary six-train, six-month dump).
  *
  * Every channel is a closed-form, hash-based function of the row id,
  * so the data is fully deterministic in `(sf, seed)` — no `rand()`,
  * whose values depend on partition layout — and both Spark and the
  * DuckDB oracle see bit-identical inputs.
  *
  * Six trains emit one fused sensor record per second. Trains move
  * along their [[RailNetwork]] ellipse, freezing position during
  * planted stop episodes (every [[stopPeriod]] seconds the train
  * stops for [[StopLen]] seconds wherever it happens to be — inside or
  * outside a station, which is exactly what Q7 must tell apart).
  */
object TrainData {

  /** Events per unit scale factor (SF=1 ~ one month of six trains). */
  val NEventsPerSf: Long = 6_000_000L

  /** Stream epoch: 2024-01-01T00:00:00Z. */
  val T0: Long = 1704067200000L

  /** Stop episode length in steps (seconds). */
  val StopLen = 120L

  /** Stop period in steps of the train in column `train`. */
  def stopPeriod(train: Column): Column = lit(900L) + train * 60L

  /** Battery charge/discharge cycle length in steps. */
  val BatteryCycle = 1800L
  val BatteryBaseV = 24.0
  val BatteryAmpV = 4.0

  /** Nominal passenger capacity per train (Q6). */
  val Capacity = 500

  /** Uniform [0,1) hash of (id, seed, salt) — deterministic per row. */
  private def h(id: Column, seed: Long, salt: Int): Column =
    pmod(hash(id, lit(seed), lit(salt)), lit(1000000)) / 1000000.0

  /** The fused per-second sensor stream.
    *
    * Columns: id, train, seq, ts_ms, lon, lat, speed_kmh, battery_v,
    * temp_c, brake_bar, noise_db, passengers, alert_type.
    */
  def events(spark: SparkSession, sf: Double = 0.01, seed: Long = 0): DataFrame = {
    val nRows = math.max(1L, (NEventsPerSf * sf).toLong)
    val pi = math.Pi
    val df = spark.range(nRows)
      .withColumn("train", (col("id") % RailNetwork.NumTrains).cast(IntegerType))
      .withColumn("seq", (col("id") / RailNetwork.NumTrains).cast(LongType))
      .withColumn("ts_ms", lit(T0) + col("seq") * 1000L)
    // Stop episodes: stopped iff (seq mod P) < StopLen; progress counts
    // only moving steps so the position freezes during a stop.
    val p = stopPeriod(col("train"))
    val inPeriod = col("seq") % p
    val withMotion = df
      .withColumn("stopped", inPeriod < StopLen)
      .withColumn("progress",
        col("seq") - (floor(col("seq") / p) * StopLen +
          least(inPeriod, lit(StopLen))).cast(LongType))
    val cx = lit(4.45) + (col("train") % 3 - 1) * 0.06
    val cy = lit(50.8) + floor(col("train") / 3) * 0.09 - 0.045
    val theta = lit(2 * pi) * col("progress") / RailNetwork.LapSteps +
      col("train") * (pi / 3)
    val withPos = withMotion
      .withColumn("lon", cx + cos(theta) * RailNetwork.RadLon)
      .withColumn("lat", cy + sin(theta) * RailNetwork.RadLat)
    val vmax = lit(100.0) + col("train") * 8.0
    val speed = when(col("stopped"), 0.0).otherwise(
      vmax * (lit(0.55) + sin(lit(2 * pi) * col("seq") / 300 + col("train")) * 0.45))
    // Battery: triangle charge/discharge curve + injected deviations.
    val batteryV = expectedBatteryV(col("seq")) + (h(col("id"), seed, 1) - 0.5) * 0.2 +
      when(h(col("id"), seed, 2) < 0.01, lit(2.0) + h(col("id"), seed, 3) * 2)
        .otherwise(0.0)
    val tempC = lit(20.0) + sin(lit(2 * pi) * col("seq") / 43200) * 8 +
      (h(col("id"), seed, 4) - 0.5) * 2 +
      when(h(col("id"), seed, 5) < 0.004, lit(18.0) + h(col("id"), seed, 6) * 5)
        .otherwise(0.0)
    // Brakes: nominal ~5 bar; planted persistent-low episodes (~3.4 bar
    // for 400 s every 7001 s) and rare emergency drops (< 2 bar).
    val brakeBar = greatest(lit(0.3),
      lit(5.0) + (h(col("id"), seed, 7) - 0.5) * 0.6 -
        when(col("seq") % 7001 < 400, 1.6).otherwise(0.0) -
        when(h(col("id"), seed, 8) < 0.004, lit(3.5) + h(col("id"), seed, 9))
          .otherwise(0.0))
    val noiseDb = lit(55.0) + speed * 0.25 + (h(col("id"), seed, 10) - 0.5) * 12
    val passengers = round(lit(580.0) *
      greatest(lit(0.0), sin(lit(2 * pi) * col("seq") / 3600 + col("train") * 0.7)) *
      (lit(0.8) + h(col("id"), seed, 11) * 0.4)).cast(IntegerType)
    val alertType = when(speed > 115.0, "SPEED")
      .when(h(col("id"), seed, 12) < 0.002, "EQUIP")
      .otherwise(lit(null).cast(StringType))
    withPos
      .withColumn("speed_kmh", speed)
      .withColumn("battery_v", batteryV)
      .withColumn("temp_c", tempC)
      .withColumn("brake_bar", brakeBar)
      .withColumn("noise_db", noiseDb)
      .withColumn("passengers", passengers)
      .withColumn("alert_type", alertType)
      .drop("stopped", "progress")
  }

  /** The expected battery voltage at stream position `seq` — the
    * "predefined curve" Q5 checks deviations against.
    */
  def expectedBatteryV(seq: Column): Column =
    lit(BatteryBaseV) +
      (lit(1.0) - abs((seq % BatteryCycle) / BatteryCycle.toDouble * 2 - 1)) * BatteryAmpV

  /** Synthetic OpenMeteo substitute: one condition per weather cell per
    * hour. Columns: cell_x, cell_y, hour_ms, condition (0 clear, 1
    * rain, 2 snow, 3 fog), severity in [0,1).
    */
  def weather(spark: SparkSession, hours: Int, seed: Long = 0): DataFrame = {
    val cells = RailNetwork.CellsX * RailNetwork.CellsY
    spark.range(cells.toLong * hours)
      .withColumn("cell_x", (col("id") % RailNetwork.CellsX).cast(IntegerType))
      .withColumn("cell_y",
        ((col("id") / RailNetwork.CellsX) % RailNetwork.CellsY).cast(IntegerType))
      .withColumn("hour_ms", lit(T0) + floor(col("id") / cells) * 3600000L)
      .withColumn("condition",
        when(h(col("id"), seed, 21) < 0.60, 0)
          .when(h(col("id"), seed, 21) < 0.75, 1)
          .when(h(col("id"), seed, 21) < 0.85, 3)
          .otherwise(2))
      .withColumn("severity", h(col("id"), seed, 22))
      .drop("id")
  }
}
