package perfbench

import java.io.File

import scala.collection.mutable

import org.apache.spark.sql.SparkSession

/** Input sizes of one run. `normal` is what the benchmark measures;
  * `tiny` is the self-test's size, which only checks that every metric
  * is produced.
  */
final case class Sizes(bulkWarm: Int, bulkChunk: Int, bulkMinTimed: Int, bulkMaxTimed: Int,
                       zonesEvents: Long, zonesMinReps: Int, zonesMaxReps: Int,
                       sliceSeconds: Int, sliceChunks: Int, microRows: Long)

object Sizes {
  val normal: Sizes = Sizes(
    bulkWarm = 6000, bulkChunk = 60000, bulkMinTimed = 2, bulkMaxTimed = 4,
    zonesEvents = 120000, zonesMinReps = 3, zonesMaxReps = 10,
    sliceSeconds = 600, sliceChunks = 2, microRows = 1000000)
  val tiny: Sizes = Sizes(
    bulkWarm = 600, bulkChunk = 1200, bulkMinTimed = 1, bulkMaxTimed = 2,
    zonesEvents = 12000, zonesMinReps = 1, zonesMaxReps = 2,
    sliceSeconds = 600, sliceChunks = 2, microRows = 20000)
}

final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean,
                      tiny: Boolean, workDir: File, facts: Seq[(String, String)])

object Args {
  def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Args(need("workload"), need("seed").toLong, need("seconds").toDouble, need("trace") == "1",
      kv.get("tiny").contains("1"), new File(need("work-dir")),
      kv.toSeq.filter(_._1.startsWith("fact-")).map { case (k, v) => k.drop(5) -> v }.sortBy(_._1))
  }
}

/** What a workload needs, and where it puts what it measures. */
final class Ctx(val spark: SparkSession, val args: Args, val sizes: Sizes, val tracer: Tracer,
                probe: Option[JobProbe], val tmp: File, startMs: Double) {
  val facts = mutable.LinkedHashMap.empty[String, String]
  val e2eMetrics = mutable.LinkedHashMap.empty[String, (Double, String)]
  val layerMetrics = mutable.LinkedHashMap.empty[String, (Double, String)]
  private val attemptedOps = mutable.ArrayBuffer.empty[Long]
  private val failedOps = mutable.LinkedHashMap.empty[String, Long]
  val lines = mutable.ArrayBuffer.empty[String]
  var setupS: Double = Double.NaN

  def fact(k: String, v: Any): Unit = synchronized { facts(k) = v.toString }
  def line(s: String): Unit = synchronized { lines += s }
  def e2e(name: String, v: Double, unit: String): Unit = synchronized { e2eMetrics(name) = (v, unit) }
  def layer(name: String, v: Double, unit: String): Unit = synchronized { layerMetrics(name) = (v, unit) }
  def setupDone(): Unit = setupS = (Clock.nowMs() - startMs) / 1000

  /** Set-up that runs after the first timed event (a query's own warm-up
    * right before its timed window); it counts in `setup_s` too.
    */
  def untimedSetup[T](span: String)(body: => T): T = {
    val t0 = Clock.nowMs()
    try tracer.span(span)(body) finally setupS += (Clock.nowMs() - t0) / 1000
  }
  def label(l: String): Unit = spark.sparkContext.setLocalProperty(JobProbe.LabelKey, l)

  def attempt(ops: Long): Unit = synchronized { attemptedOps += ops }
  def attempted: Long = attemptedOps.sum

  /** `ops` operations of query `q` failed; a query's failures are not
    * counted twice when several checks catch it.
    */
  def fail(q: String, ops: Long, why: String): Unit = synchronized {
    failedOps(q) = math.max(failedOps.getOrElse(q, 0L), math.max(ops, 1L))
    line(s"FAILED $q: $why")
  }

  /** Run `f` on each item, `nproc` at a time, inside the current span. */
  def parallel[A](items: Seq[A])(f: A => Unit): Unit = {
    val pool = java.util.concurrent.Executors.newFixedThreadPool(Runtime.getRuntime.availableProcessors)
    val parent = tracer.current
    try items.map(a => pool.submit(new Runnable { def run(): Unit = tracer.under(parent)(f(a)) }))
      .foreach(_.get())
    finally pool.shutdown()
  }
  def failed: Long = failedOps.values.sum

  /** Each query's rate is a per-layer metric. The end-to-end rate of a
    * query family is the harmonic mean of its queries' rates: events per
    * second of one input pushed through each query of the family in turn.
    */
  def rates(eps: Seq[(String, Double)]): Unit = {
    eps.foreach { case (q, v) => layer(s"${q}_eps", v, "events/s") }
    Queries.families.foreach { case (family, qs) =>
      val of = eps.collect { case (q, v) if qs.contains(q) => v }
      val rate = of.size / of.map(1 / _).sum
      e2e(s"${family}_eps", rate, "events/s")
      line(f"$family%-10s $rate%12.0f events/s (harmonic mean of ${qs.mkString(", ")})")
    }
  }

  def latency(samples: Seq[Double], what: String): Unit = {
    layer("latency_p50_ms", Stats.quantile(samples, 0.5), "ms")
    layer("latency_p99_ms", Stats.quantile(samples, 0.99), "ms")
    line(f"latency: ${samples.size} samples (one per $what), " +
      f"${(samples.size * 0.01).floor.toInt} beyond p99")
  }

  def jvm(w: JvmWindow): Unit = {
    layer("jvm.gc_ms", w.gcMs, "ms")
    layer("jvm.gc_count", w.gcCount, "count")
    layer("jvm.heap_used_peak_mb", w.heapPeakMb, "MB")
  }

  def core(q: String, rows: Long, jobs: Double, planMs: Double, shuffleBytes: Long): Unit = {
    layer(s"core.$q.rows_out", rows.toDouble, "count")
    layer(s"core.$q.jobs", jobs, "count")
    layer(s"core.$q.plan_ms", planMs, "ms")
    layer(s"core.$q.shuffle_write_bytes", shuffleBytes.toDouble, "B")
  }

  def jobsIn(label: String, fromMs: Double, toMs: Double): Double =
    probe.map(_.jobCount(label, fromMs, toMs).toDouble).getOrElse(0.0)
  def shuffleIn(label: String, fromMs: Double, toMs: Double): Double =
    probe.map(_.shuffleWriteBytes(label, fromMs, toMs).toDouble).getOrElse(0.0)
}

/** Entry point: `perfbench.Main --workload W --seed N --seconds S
  * --trace 0|1 --work-dir DIR [--tiny 1] [--fact-KEY VALUE ...]`.
  * Prints human-readable lines, then one line `PERFBENCH_RESULT {json}`.
  */
object Main {
  val workloads: Map[String, Ctx => Unit] = Map(
    "stream-bulk" -> Workloads.streamBulk,
    "zones-2026" -> Workloads.zones2026)

  def main(argv: Array[String]): Unit = {
    val startMs = Clock.nowMs()
    val args = Args.parse(argv)
    val run = workloads.getOrElse(args.workload,
      throw new IllegalArgumentException(s"unknown workload ${args.workload}"))
    val cores = Runtime.getRuntime.availableProcessors
    val tmp = new File(args.workDir, s"tmp/run-${ProcessHandle.current.pid}")
    val confs = Seq(
      "spark.master" -> s"local[$cores]",
      "spark.app.name" -> "perfbench",
      "spark.ui.enabled" -> "false",
      "spark.driver.host" -> "127.0.0.1",
      "spark.sql.shuffle.partitions" -> cores.toString,
      "spark.sql.autoBroadcastJoinThreshold" -> "-1",
      "spark.sql.streaming.numRecentProgressUpdates" -> "100000",
      "spark.local.dir" -> new File(tmp, "spark-local").getPath,
      "spark.sql.warehouse.dir" -> new File(tmp, "warehouse").getPath)
    val tracer = new Tracer(args.trace)
    val spark = tracer.span("spark.session") {
      confs.foldLeft(SparkSession.builder) { case (b, (k, v)) => b.config(k, v) }.getOrCreate()
    }
    spark.sparkContext.setLogLevel("ERROR")
    val probe = if (args.trace) Some(new JobProbe) else None
    probe.foreach(spark.sparkContext.addSparkListener)
    val ctx = new Ctx(spark, args, if (args.tiny) Sizes.tiny else Sizes.normal, tracer, probe, tmp, startMs)
    val ok =
      try { tracer.span(s"bench.${args.workload}")(run(ctx)); true }
      catch {
        case e: Throwable =>
          System.err.println(s"perfbench: ${args.workload} failed")
          e.printStackTrace()
          false
      }
    if (args.trace) {
      Thread.sleep(300) // let the listener bus deliver the last events
      tracer.selfTimeByLayer.toSeq.sortBy(_._1).foreach { case (l, ms) => ctx.layer(s"trace.self.${l}_ms", ms, "ms") }
    }
    val facts = args.facts ++ Seq(
      "workload" -> args.workload, "seed" -> args.seed.toString, "seconds" -> args.seconds.toString,
      "trace" -> (if (args.trace) "1" else "0"), "size" -> (if (args.tiny) "tiny" else "normal"),
      "nproc" -> cores.toString,
      "driver_heap_mb" -> (Runtime.getRuntime.maxMemory / 1048576).toString,
      "spark_version" -> spark.version,
      "scala_version" -> scala.util.Properties.versionNumberString,
      "java_version" -> System.getProperty("java.version")) ++
      confs.map { case (k, v) => s"conf.$k" -> v } ++ ctx.facts.toSeq
    spark.stop()
    deleteTree(tmp)
    if (!ok) sys.exit(1)

    facts.foreach { case (k, v) => println(s"fact $k=$v") }
    ctx.lines.foreach(println)
    println(f"setup_s ${ctx.setupS}%.3f")
    Seq("jvm.gc_ms", "jvm.gc_count", "jvm.heap_used_peak_mb").flatMap(k => ctx.layerMetrics.get(k).map(k -> _))
      .foreach { case (k, (v, u)) => println(f"$k $v%.1f $u (timed window)") }
    println(s"failed_frac ${ctx.failed}/${ctx.attempted} operations")
    if (args.trace) {
      val f = new File(args.workDir, s"traces/${args.workload}-seed${args.seed}.json")
      tracer.writeJson(f, facts)
      println(s"trace: ${tracer.count} spans written to ${f.getPath}")
    }
    ctx.e2e("setup_s", ctx.setupS, "s")
    def obj(m: Iterable[(String, (Double, String))]) =
      m.map { case (k, (v, u)) => s"${Json.str(k)}: {\"value\": ${Json.num(v)}, \"unit\": ${Json.str(u)}}" }
        .mkString("{", ", ", "}")
    println("PERFBENCH_RESULT {" +
      s""""correct": ${ctx.failed == 0}, "attempted": ${ctx.attempted}, "failed": ${ctx.failed}, """ +
      s""""e2e": ${obj(ctx.e2eMetrics)}, "layer": ${obj(ctx.layerMetrics)}}""")
  }

  private def deleteTree(f: File): Unit = {
    Option(f.listFiles).foreach(_.foreach(deleteTree))
    f.delete()
  }
}
