package perfbench

import java.time.Instant
import java.util.concurrent.ConcurrentLinkedQueue

import scala.jdk.CollectionConverters._

import org.apache.spark.sql.SQLContext
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.streaming.{StreamingQuery, StreamingQueryProgress}

import repro.core.SensorEvent

/** One `addData` call: the chunk's source offset, when it was due and
  * when the call ran.
  */
final case class Add(offset: Long, dueMs: Double, startMs: Double, endMs: Double, events: Int)

/** One executed micro-batch, read from `StreamingQueryProgress`. */
final case class Batch(id: Long, startOff: Long, endOff: Long, startMs: Double, endMs: Double,
                       inputRows: Long, durations: Map[String, Long],
                       stateRows: Long, stateUpdated: Long, stateBytes: Long,
                       stateCommitMs: Long, stateUpdateMs: Long, sinkRows: Long) {
  def chunks: Long = endOff - startOff
  def ms(phase: String): Double = durations.getOrElse(phase, 0L).toDouble
  def triggerMs: Double = ms("triggerExecution")
}

object Batch {
  private def offset(s: String): Long =
    if (s == null || s.trim.isEmpty || s.trim == "null") -1L else s.trim.toLong

  def of(p: StreamingQueryProgress): Batch = {
    val d = p.durationMs.asScala.map { case (k, v) => k -> v.longValue }.toMap
    val start = Instant.parse(p.timestamp).toEpochMilli.toDouble
    val ops = p.stateOperators.toSeq
    Batch(p.batchId, offset(p.sources.head.startOffset), offset(p.sources.head.endOffset),
      start, start + d.getOrElse("triggerExecution", 0L),
      p.numInputRows, d,
      ops.map(_.numRowsTotal).sum, ops.map(_.numRowsUpdated).sum, ops.map(_.memoryUsedBytes).sum,
      ops.map(_.commitTimeMs).sum, ops.map(_.allUpdatesTimeMs).sum,
      Option(p.sink).map(_.numOutputRows).filter(_ >= 0).getOrElse(0L))
  }
}

/** A started streaming query fed from its own `MemoryStream`, writing to
  * a memory sink table named after the query.
  */
final class Running(ctx: Ctx, val q: StreamQuery) {
  private implicit val sqlContext: SQLContext = ctx.spark.sqlContext
  import ctx.spark.implicits._

  val source: MemoryStream[SensorEvent] = MemoryStream[SensorEvent]
  val query: StreamingQuery = {
    ctx.spark.sparkContext.setLocalProperty(JobProbe.LabelKey, q.name)
    ctx.tracer.span(s"stream.${q.name}.start") {
      q.build(source.toDS()).writeStream
        .format("memory").queryName(q.name).outputMode(q.mode)
        .option("checkpointLocation", new java.io.File(ctx.tmp, s"ckpt-${q.name}").getPath)
        .start()
    }
  }
  private val added = new ConcurrentLinkedQueue[Add]()
  @volatile var failure: Option[String] = None

  /** Add one chunk that was due at `dueMs`. */
  def add(chunk: Seq[SensorEvent], dueMs: Double): Unit = {
    val t0 = Clock.nowMs()
    val off = ctx.tracer.span("stream.add_data") {
      ctx.tracer.annotate("query", q.name)
      ctx.tracer.annotate("events", chunk.size)
      source.addData(chunk)
    }
    added.add(Add(off.json().trim.toLong, dueMs, t0, Clock.nowMs(), chunk.size))
  }

  def adds: Seq[Add] = added.asScala.toSeq.sortBy(_.offset)

  /** Block until every added chunk is processed; a query failure is
    * recorded rather than thrown.
    */
  def drain(): Unit =
    if (failure.isEmpty)
      try query.processAllAvailable()
      catch { case e: Throwable => failure = Some(s"${e.getClass.getSimpleName}: ${e.getMessage}".take(300)) }

  /** Executed batches, waiting until the progress of the batch covering
    * the last added chunk is visible.
    */
  def batches: Seq[Batch] = {
    val last = adds.lastOption.map(_.offset).getOrElse(-1L)
    val deadline = System.nanoTime() + 20e9.toLong
    def read = query.recentProgress.toSeq
      .filter(p => p.durationMs.containsKey("addBatch") && p.sources.nonEmpty)
      .map(Batch.of).groupBy(_.id).values.map(_.head).toSeq.sortBy(_.id)
    var bs = read
    while (failure.isEmpty && !bs.lastOption.exists(_.endOff >= last) && System.nanoTime() < deadline) {
      Thread.sleep(10)
      bs = read
    }
    bs
  }

  def stop(): Unit = try query.stop() catch { case _: Throwable => () }
}

/** What one query did in the timed window of a stream workload. */
final case class StreamRun(name: String, adds: Seq[Add], batches: Seq[Batch],
                           allBatches: Seq[Batch], fedEvents: Long, eventsPerSec: Double,
                           jobs: Double, shuffleBytes: Long) {

  /** Due time to the end of the first batch whose end offset covers the chunk. */
  def latencies: Seq[Double] = adds.flatMap { a =>
    batches.find(_.endOff >= a.offset).map(_.endMs - a.dueMs)
  }

  /** Chunks added but not yet covered by a finished batch, seen at each add. */
  def backlogs: Seq[Long] = {
    val first = adds.headOption.map(_.offset).getOrElse(0L)
    adds.map { a =>
      val covered = ((first - 1L) +: batches.filter(_.endMs <= a.startMs).map(_.endOff)).max
      a.offset - covered
    }
  }
}

object StreamRun {
  private def median(xs: Seq[Double]): Double = Stats.quantile(xs, 0.5)

  /** Per-layer stream metrics pooled over all queries of a workload. */
  def layerMetrics(runs: Seq[StreamRun], genLateMs: Double, collectS: Double): Seq[(String, Double, String)] = {
    val bs = runs.flatMap(_.batches)
    def phase(p: String) = median(bs.map(_.ms(p)))
    def lastMinusFirst(f: Batch => Long) =
      runs.filter(_.batches.nonEmpty).map(r => f(r.batches.last) - f(r.batches.head)).sum.toDouble
    Seq(
      ("stream.collect_s", collectS, "s"),
      ("stream.add_data_ms", median(runs.flatMap(_.adds).map(a => a.endMs - a.startMs)), "ms"),
      ("stream.add_batch_ms", phase("addBatch"), "ms"),
      ("stream.query_planning_ms", phase("queryPlanning"), "ms"),
      ("stream.wal_commit_ms", phase("walCommit"), "ms"),
      ("stream.commit_offsets_ms", phase("commitOffsets"), "ms"),
      ("stream.latest_offset_ms", phase("latestOffset"), "ms"),
      ("stream.get_batch_ms", phase("getBatch"), "ms"),
      ("stream.trigger_ms", median(bs.map(_.triggerMs)), "ms"),
      ("stream.fixed_ms", median(bs.map(b => b.triggerMs - b.ms("addBatch"))), "ms"),
      ("stream.triggers", bs.size.toDouble, "count"),
      ("stream.chunks_per_trigger", runs.map(_.adds.size).sum.toDouble / math.max(1, bs.size), "count"),
      ("stream.state_rows", runs.flatMap(_.batches.lastOption).map(_.stateRows).sum.toDouble, "count"),
      ("stream.state_rows_growth", lastMinusFirst(_.stateRows), "count"),
      ("stream.state_bytes", runs.flatMap(_.batches.lastOption).map(_.stateBytes).sum.toDouble, "B"),
      ("stream.state_bytes_growth", lastMinusFirst(_.stateBytes), "B"),
      ("stream.state_rows_updated", bs.map(_.stateUpdated).sum.toDouble, "count"),
      ("stream.state_commit_ms", bs.map(_.stateCommitMs).sum.toDouble, "ms"),
      ("stream.state_update_ms", bs.map(_.stateUpdateMs).sum.toDouble, "ms"),
      ("stream.sink_rows", bs.map(_.sinkRows).sum.toDouble, "count"),
      ("stream.input_rows", bs.map(_.inputRows).sum.toDouble, "count"),
      ("stream.backlog_max_chunks", runs.flatMap(_.backlogs).maxOption.getOrElse(0L).toDouble, "count"),
      ("stream.gen_late_ms_max", genLateMs, "ms")) ++
      runs.flatMap { r =>
        Seq(
          (s"stream.${r.name}.add_batch_ms", median(r.batches.map(_.ms("addBatch"))), "ms"),
          (s"stream.${r.name}.fixed_ms", median(r.batches.map(b => b.triggerMs - b.ms("addBatch"))), "ms"),
          (s"stream.${r.name}.state_rows", r.batches.lastOption.map(_.stateRows).getOrElse(0L).toDouble, "count"))
      }
  }
}

object Stats {
  /** Linear-interpolation quantile (NaN for no samples). */
  def quantile(xs: Seq[Double], q: Double): Double =
    if (xs.isEmpty) Double.NaN
    else {
      val s = xs.sorted
      val pos = q * (s.size - 1)
      val lo = pos.toInt
      val hi = math.min(lo + 1, s.size - 1)
      s(lo) + (s(hi) - s(lo)) * (pos - lo)
    }
}
