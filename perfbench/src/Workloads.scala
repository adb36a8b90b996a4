package perfbench

import scala.collection.mutable
import scala.util.Try

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.functions.{col, expr}

import repro.RowCompare
import repro.bench.Harness
import repro.core.{NebulaMeos, SensorEvent, Streaming}
import repro.meos.ZoneIndex
import repro.sncb.{RailNetwork, TrainData, Zone}

/** The two workloads. Each one sets up (counted in `setup_s`), measures
  * for at least `--seconds`, then checks every query's output against a
  * reference outside the timed window.
  */
object Workloads {

  final case class Inputs(ev: DataFrame, weather: DataFrame, zones: DataFrame, events: Long)

  /** Generate and cache the seeded stream, its weather and the base
    * zone catalogue.
    */
  def generate(ctx: Ctx, events: Long): Inputs = {
    val spark = ctx.spark
    val t0 = Clock.nowMs()
    val in = ctx.tracer.span("sncb.generate") {
      NebulaMeos.setup(spark)
      // Half an event of slack: TrainData truncates NEventsPerSf * sf.
      val ev = TrainData.events(spark, (events + 0.5) / TrainData.NEventsPerSf, ctx.args.seed).cache()
      val n = ev.count()
      require(n == events, s"generated $n events, wanted $events")
      val hours = (n.toDouble / RailNetwork.NumTrains / 3600).ceil.toInt + 1
      val weather = TrainData.weather(spark, hours, ctx.args.seed).cache()
      weather.count()
      val zones = RailNetwork.zonesDf(spark).cache()
      zones.count()
      ctx.tracer.annotate("events", n)
      ctx.fact("events", n)
      ctx.fact("sf", n.toDouble / TrainData.NEventsPerSf)
      Inputs(ev, weather, zones, n)
    }
    ctx.layer("sncb.generate_s", (Clock.nowMs() - t0) / 1000, "s")
    in
  }

  private def collectChunks(ctx: Ctx, ev: DataFrame, size: Int): (IndexedSeq[Seq[SensorEvent]], Double) = {
    val t0 = Clock.nowMs()
    val chunks = ctx.tracer.span("stream.collect") { Harness.toChunks(ev, size).toIndexedSeq }
    (chunks, (Clock.nowMs() - t0) / 1000)
  }

  // ------------------------------------------------------------ stream --

  /** Closed loop: one large chunk per trigger, queries one after another.
    * Each query is started and fed one small untimed warm-up chunk right
    * before its timed chunks, so those do not pay for compiling code that
    * the other queries pushed out of Spark's generated-code cache.
    */
  def streamBulk(ctx: Ctx): Unit = {
    val s = ctx.sizes
    ctx.fact("chunk_events", s.bulkChunk)
    ctx.fact("warmup_chunk_events", s.bulkWarm)
    // Chunk 0 is the small warm-up chunk; the timed chunks follow.
    val in = generate(ctx, s.bulkWarm + s.bulkChunk.toLong * s.bulkMaxTimed)
    val (small, collectS) = collectChunks(ctx, in.ev, s.bulkWarm)
    val chunks = small.head +: small.tail.grouped(s.bulkChunk / s.bulkWarm).map(_.flatten).toIndexedSeq
    ctx.setupDone()
    val jvm = new JvmWindow
    val slice = ctx.args.seconds * 1000 / Queries.names.size
    val closedLoop = mutable.Map.empty[String, Seq[Double]]
    val results = Queries.streaming(ctx.spark, in.weather).map { q =>
      val r = ctx.untimedSetup(s"bench.${q.name}.warmup") {
        val r = new Running(ctx, q)
        r.add(chunks(0), Clock.nowMs())
        r.drain()
        r
      }
      val span = ctx.tracer.span(s"bench.${q.name}.timed") {
        val t0 = Clock.nowMs()
        val times = mutable.ArrayBuffer.empty[Double]
        var i = 1
        while (r.failure.isEmpty && i < chunks.size &&
               (times.size < s.bulkMinTimed || Clock.nowMs() - t0 < slice)) {
          val due = Clock.nowMs()
          r.add(chunks(i), due)
          r.drain()
          times += Clock.nowMs() - due
          i += 1
        }
        closedLoop(q.name) = times.toSeq
        // A stopped query stops polling its source; its sink table stays.
        r.stop()
        (t0, Clock.nowMs(), ctx.tracer.current)
      }
      (r, span)
    }
    val runs = results.map(_._1)
    ctx.jvm(jvm)
    val streamRuns = results.map { case (r, (t0, t1, parent)) =>
      val eps = s.bulkChunk / (Stats.quantile(closedLoop(r.q.name), 0.5) / 1000)
      summarise(ctx, r, firstTimed = 1, eps, t0, t1, parent)
    }
    // One chunk per trigger, and every generated row reaches the query.
    streamRuns.zip(runs).foreach { case (sr, r) =>
      val fed = r.adds.map(_.events.toLong).sum
      val inRows = sr.allBatches.map(_.inputRows).sum
      if (sr.batches.size != sr.adds.size || sr.batches.exists(_.chunks != 1))
        ctx.fail(r.q.name, sr.adds.size, s"${sr.batches.size} triggers for ${sr.adds.size} chunks")
      if (inRows != fed)
        ctx.fail(r.q.name, sr.adds.size, s"numInputRows $inRows != $fed events fed")
    }
    finishStream(ctx, in, runs, streamRuns, collectS, genLateMs = streamRuns.flatMap(_.adds)
      .map(a => a.startMs - a.dueMs).maxOption.getOrElse(0.0))
  }

  /** Start all nine streaming queries and feed each chunk to all of them,
    * waiting for every query to process it before the next.
    */
  private def startAll(ctx: Ctx, in: Inputs, chunks: Seq[Seq[SensorEvent]]): Seq[Running] =
    ctx.tracer.span("bench.stream_all") {
      val runs = Queries.streaming(ctx.spark, in.weather).map(new Running(ctx, _))
      chunks.foreach { c =>
        val due = Clock.nowMs()
        runs.foreach(_.add(c, due))
        runs.foreach(_.drain())
      }
      runs
    }

  /** The timed part of one query's run, with its trigger spans. */
  private def summarise(ctx: Ctx, r: Running, firstTimed: Long, eps: Double,
                        t0: Double, t1: Double, parent: (Long, Long)): StreamRun = {
    val all = r.batches
    val timed = all.filter(_.endOff >= firstTimed)
    r.failure.foreach(f => ctx.fail(r.q.name, r.adds.count(_.offset >= firstTimed), f))
    timed.foreach { b =>
      val id = ctx.tracer.record(s"stream.${r.q.name}.trigger", parent, b.startMs, b.endMs,
        Map("batch" -> b.id.toString, "input_rows" -> b.inputRows.toString,
          "chunks" -> b.chunks.toString, "state_rows" -> b.stateRows.toString))
      var at = b.startMs
      Seq("latestOffset", "walCommit", "getBatch", "queryPlanning", "addBatch", "commitOffsets")
        .foreach { p =>
          val d = b.ms(p)
          val name = if (p == "addBatch") s"core.${r.q.name}.add_batch" else s"stream.phase.$p"
          ctx.tracer.record(name, (id, parent._2), at, at + d)
          at += d
        }
    }
    StreamRun(r.q.name, r.adds.filter(_.offset >= firstTimed), timed, all,
      r.adds.map(_.events.toLong).sum, eps,
      ctx.jobsIn(r.q.name, t0, t1) / math.max(1.0, timed.size),
      (ctx.shuffleIn(r.q.name, t0, t1) / math.max(1.0, timed.size)).toLong)
  }

  private def finishStream(ctx: Ctx, in: Inputs, runs: Seq[Running], streamRuns: Seq[StreamRun],
                           collectS: Double, genLateMs: Double): Unit = {
    streamRuns.foreach(sr => ctx.attempt(sr.adds.size))
    ctx.rates(streamRuns.map(sr => sr.name -> sr.eventsPerSec))
    val lat = streamRuns.flatMap(_.latencies)
    ctx.latency(lat, "chunk")
    StreamRun.layerMetrics(streamRuns, genLateMs, collectS).foreach { case (n, v, u) => ctx.layer(n, v, u) }
    // Gate: each streaming output equals its batch formulation over the
    // events that were fed to it.
    ctx.label("gate")
    ctx.tracer.span("bench.gate") {
      ctx.parallel(runs.zip(streamRuns)) { case (r, sr) =>
        val seqs = sr.fedEvents / RailNetwork.NumTrains
        val got = ctx.spark.table(r.q.name)
        val rows = got.count()
        ctx.core(r.q.name, rows, sr.jobs,
          Stats.quantile(sr.batches.map(_.ms("queryPlanning")), 0.5), sr.shuffleBytes)
        if (r.failure.isEmpty) check(ctx, r.q.name, sr.adds.size, got,
          Queries.closedOnly(r.q.name,
            Queries.batch(r.q.name, in.ev.where(col("seq") < seqs), in.zones, in.weather),
            Queries.lastTs(seqs)), "batch formulation")
      }
    }
    streamRuns.foreach { sr =>
      ctx.line(f"${sr.name}%-4s ${sr.eventsPerSec}%12.0f events/s  chunks ${sr.adds.size}%4d" +
        f"  triggers ${sr.batches.size}%4d  chunk latency ms " +
        sr.latencies.map(l => f"$l%.0f").take(12).mkString(" "))
    }
    runs.foreach(_.stop())
    if (ctx.tracer.enabled) traceOnly(ctx, in.ev, RailNetwork.all)
  }

  /** Compare under `RowCompare`; a mismatch fails the query's operations. */
  private def check(ctx: Ctx, q: String, ops: Long, got: DataFrame, want: => DataFrame,
                    what: String): Unit =
    ctx.tracer.span(s"bench.gate.$q") {
      Try(RowCompare.assertSameRows(got, want)).failed.foreach { e =>
        ctx.fail(q, ops, s"differs from $what: ${String.valueOf(e.getMessage).take(300)}")
      }
    }

  // ------------------------------------------------------------- batch --

  /** Batch plans of Q1–Q8b; Q1–Q3 against 26 + 2,000 zones. */
  def zones2026(ctx: Ctx): Unit = {
    val s = ctx.sizes
    val spark = ctx.spark
    val in = generate(ctx, s.zonesEvents)
    val catalogue = RailNetwork.all ++ RailNetwork.syntheticZones(2000, ctx.args.seed)
    val big = ctx.tracer.span("sncb.zones") {
      val df = RailNetwork.toDf(spark, catalogue).cache()
      df.count()
      df
    }
    ctx.fact("zones", catalogue.size)
    def plan(q: String, ev: DataFrame): DataFrame =
      Queries.batch(q, ev, if (Queries.zoneQueries(q)) big else in.zones, in.weather)
    def run(q: String): Unit = plan(q, in.ev).write.format("noop").mode("overwrite").save()
    ctx.setupDone()
    val jvm = new JvmWindow
    val slice = ctx.args.seconds * 1000 / Queries.names.size
    // One query after another; each first runs once untimed (as in
    // stream-bulk), then as often as its share of the run allows.
    val timed = Queries.names.map { q =>
      ctx.label(q)
      var error: Option[String] = None
      def execute(): Unit =
        Try(run(q)).failed.foreach(e => error = Some(s"${e.getClass.getSimpleName}: ${e.getMessage}".take(300)))
      ctx.untimedSetup(s"core.$q.warmup")(execute())
      val t0 = Clock.nowMs()
      val times = mutable.ArrayBuffer.empty[Double]
      while (error.isEmpty && times.size < s.zonesMaxReps &&
             (times.size < s.zonesMinReps || Clock.nowMs() - t0 < slice)) {
        val a = Clock.nowMs()
        ctx.tracer.span(s"core.$q.execute")(execute())
        times += Clock.nowMs() - a
      }
      error.foreach(ctx.fail(q, math.max(1, times.size), _))
      (q, times.toSeq, t0, Clock.nowMs())
    }
    ctx.jvm(jvm)
    timed.foreach { case (_, times, _, _) => ctx.attempt(math.max(1, times.size)) }
    ctx.rates(timed.map { case (q, times, _, _) => q -> in.events / (Stats.quantile(times, 0.5) / 1000) })
    ctx.latency(timed.flatMap(_._2), "query execution")

    // Gate, on a whole-window slice small enough for the naive baselines.
    ctx.label("gate")
    val seqs = s.sliceSeconds.toLong
    val sliceEv = in.ev.where(col("seq") < seqs).cache()
    sliceEv.count()
    val ops = timed.map { case (q, times, _, _) => q -> times.size.toLong }.toMap
    ctx.tracer.span("bench.gate") {
      val (chunks, collectS) = collectChunks(ctx, sliceEv, (s.sliceSeconds / s.sliceChunks) * RailNetwork.NumTrains)
      val events = chunks.flatten
      import spark.implicits._
      val lastTs = Queries.lastTs(seqs)
      val references: Map[String, () => DataFrame] = Map(
        "q4" -> (() => References.weatherSpeedZones(spark, events, in.weather)),
        "q5" -> (() => Streaming.batteryMonitoring(sliceEv, RailNetwork.workshops)),
        "q6" -> (() => References.heavyPassengerLoad(spark, events)),
        "q8b" -> (() => Queries.closedOnly("q8b",
          Streaming.persistentLowPressure(sliceEv.as[SensorEvent])(spark), lastTs)))
      ctx.parallel(Queries.names) { q =>
        Queries.baseline(q, sliceEv, if (Queries.zoneQueries(q)) big else in.zones) match {
          case Some(b) => check(ctx, q, ops(q), plan(q, sliceEv), b, "naive baseline")
          case None => check(ctx, q, ops(q), Queries.closedOnly(q, plan(q, sliceEv), lastTs),
            references(q)(), "reference")
        }
      }
      // Traced runs also check streaming equals batch on the slice, at the
      // base catalogue the streaming formulations fold in; that gives the
      // stream.* metrics of this workload.
      if (ctx.tracer.enabled) {
        val runs = startAll(ctx, in, chunks)
        val srs = runs.map(r => summarise(ctx, r, 0, Double.NaN, 0, 0, ctx.tracer.current))
        ctx.parallel(runs) { r =>
          check(ctx, r.q.name, ops(r.q.name), ctx.spark.table(r.q.name),
            Queries.closedOnly(r.q.name, Queries.batch(r.q.name, sliceEv, in.zones, in.weather), lastTs),
            "streaming formulation")
        }
        runs.foreach(_.stop())
        StreamRun.layerMetrics(srs, srs.flatMap(_.adds).map(a => a.startMs - a.dueMs).maxOption.getOrElse(0.0),
          collectS).foreach { case (n, v, u) => ctx.layer(n, v, u) }
      }
    }

    timed.foreach { case (q, times, t0, t1) =>
      ctx.line(f"$q%-4s ${in.events / (Stats.quantile(times, 0.5) / 1000)}%12.0f events/s  " +
        f"executions ${times.size}%3d  ms " + times.map(t => f"$t%.0f").mkString(" "))
      if (ctx.tracer.enabled) {
        ctx.label(s"trace-$q")
        val (rows, planMs) = ctx.tracer.span(s"core.$q.traced") {
          val df = plan(q, in.ev)
          val qe = df.queryExecution
          qe.executedPlan
          val planMs = qe.tracker.phases.values.map(_.durationMs.toDouble).sum
          val rows = qe.toRdd.count()
          sqlMetrics(qe.executedPlan).foreach { case (k, v) => ctx.tracer.annotate(k, v) }
          (rows, planMs)
        }
        ctx.core(q, rows, ctx.jobsIn(q, t0, t1) / times.size, planMs,
          (ctx.shuffleIn(q, t0, t1) / times.size).toLong)
      }
    }
    if (ctx.tracer.enabled) traceOnly(ctx, in.ev, catalogue)
  }

  /** `numOutputRows` of every executed operator, AQE stages included. */
  private def sqlMetrics(plan: org.apache.spark.sql.execution.SparkPlan): Seq[(String, Long)] = {
    val helper = new AdaptiveSparkPlanHelper {}
    helper.collect(plan) { case p if p.metrics.contains("numOutputRows") => p }
      .zipWithIndex
      .map { case (p, i) => (s"rows.$i.${p.nodeName}", p.metrics("numOutputRows").value) }
  }

  // ------------------------------------------------------- traced only --

  /** Zone-lookup counts, MEOS microbenchmarks and zone-index build. */
  private def traceOnly(ctx: Ctx, ev: DataFrame, catalogue: Seq[Zone]): Unit = {
    ctx.label("trace")
    zoneCounts(ctx, ev, catalogue)
    micro(ctx)
    val times = (1 to 3).map { _ =>
      val t0 = Clock.nowMs()
      val cells = ctx.tracer.span("meos.zone_index.build") {
        ZoneIndex.indexDf(ctx.spark, catalogue).count()
      }
      (Clock.nowMs() - t0, cells)
    }
    ctx.layer("meos.zone_index.cells", times.head._2.toDouble, "count")
    ctx.layer("meos.zone_index.build_ms", Stats.quantile(times.map(_._1), 0.5), "ms")
  }

  /** Rows into and out of the bbox prefilter, grid-join candidate pairs
    * and exact matches, summed over the zone kinds of Q1–Q3.
    */
  private def zoneCounts(ctx: Ctx, ev: DataFrame, catalogue: Seq[Zone]): Unit = {
    val totals = ctx.tracer.span("core.zone.counts") {
      Seq("maintenance" -> ev.where(col("alert_type").isNotNull),
          "neighbourhood" -> ev, "curve" -> ev).map { case (kind, input) =>
        val of = catalogue.filter(_.kind == kind)
        val pre = input.where(expr(s"st_in_box(lon, lat, ${of.map(_.xmin).min}D, ${of.map(_.xmax).max}D, " +
          s"${of.map(_.ymin).min}D, ${of.map(_.ymax).max}D)"))
        val idx = ZoneIndex.indexDf(ctx.spark, of)
        Seq(input.count(), pre.count(),
          pre.withColumn("cell_id", ZoneIndex.cellIdCol).join(idx, Seq("cell_id")).count(),
          ZoneIndex.join(pre, idx).count())
      }.transpose.map(_.sum.toDouble)
    }
    Seq("prefilter_in_rows", "prefilter_out_rows", "candidates", "matches").zip(totals)
      .foreach { case (n, v) => ctx.layer(s"core.zone.$n", v, "count") }
    ctx.layer("core.zone.useful_ratio", totals(3) / math.max(1.0, totals(2)), "ratio")
  }

  /** Rows/s of each MEOS scalar over a fixed generated input. */
  private def micro(ctx: Ctx): Unit = {
    val n = ctx.sizes.microRows
    val input = ctx.spark.range(n).selectExpr(
      "4.0D + 0.9D * ((id * 7919) % 100003) / 100003.0D AS lon",
      "50.5D + 0.6D * ((id * 104729) % 99991) / 99991.0D AS lat",
      "id * 1000 AS ts").cache()
    input.count()
    Seq(
      "st_in_box" -> "st_in_box(lon, lat, 4.3D, 4.6D, 50.7D, 50.9D)",
      "st_in_stbox" -> s"st_in_stbox(lon, lat, ts, 4.3D, 4.6D, 50.7D, 50.9D, 0D, ${n * 500}D)",
      "st_distance" -> "st_distance(lon, lat, 4.45D, 50.8D) < 20000D",
      "ed_within" -> "ed_within(lon, lat, 4.45D, 50.8D, 20000D)",
      "st_point_in_poly" -> "st_point_in_poly(lon, lat, array(4.3D, 50.7D, 4.6D, 50.7D, 4.6D, 50.9D, 4.3D, 50.9D))"
    ).foreach { case (fn, predicate) =>
      val times = ctx.tracer.span(s"meos.$fn") {
        (0 to 3).map { _ =>
          val t0 = Clock.nowMs()
          input.where(expr(predicate)).write.format("noop").mode("overwrite").save()
          Clock.nowMs() - t0
        }.tail
      }
      ctx.layer(s"meos.$fn.rows_per_s", n / (Stats.quantile(times, 0.5) / 1000), "rows/s")
    }
    input.unpersist()
  }
}
