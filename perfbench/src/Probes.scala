package perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import java.util.concurrent.{ConcurrentHashMap, ConcurrentLinkedQueue}
import java.util.concurrent.atomic.{AtomicLong, LongAdder}

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}

/** One wall clock for the whole run: epoch milliseconds with nanosecond
  * resolution. Spark's `StreamingQueryProgress.timestamp` is epoch
  * milliseconds too, so chunk due times and batch end times compare.
  */
object Clock {
  private val baseNs = System.nanoTime()
  private val baseMs = System.currentTimeMillis().toDouble
  def nowMs(): Double = baseMs + (System.nanoTime() - baseNs) / 1e6
}

/** Spans recorded by the benchmark around its calls into each layer.
  *
  * A span's layer is the part of its name before the first dot
  * (`bench`, `spark`, `sncb`, `stream`, `core`, `meos`). Spans are kept
  * in memory and written as JSON at exit. With `enabled = false` every
  * call is a pass-through, so the untimed and timed code paths are the
  * same in both modes.
  */
final class Tracer(val enabled: Boolean) {
  final case class Span(id: Long, parent: Long, trace: Long, name: String,
                        startMs: Double, endMs: Double, attrs: Map[String, String])

  private final class Open(val id: Long, val trace: Long) {
    val attrs = mutable.LinkedHashMap.empty[String, String]
  }

  private val spans = new ConcurrentLinkedQueue[Span]()
  private val ids = new AtomicLong(0)
  private val stack = new ThreadLocal[List[Open]] { override def initialValue(): List[Open] = Nil }

  def span[T](name: String)(body: => T): T =
    if (!enabled) body
    else {
      val id = ids.incrementAndGet()
      val outer = stack.get
      val open = new Open(id, outer.headOption.map(_.trace).getOrElse(id))
      stack.set(open :: outer)
      val t0 = Clock.nowMs()
      try body
      finally {
        stack.set(outer)
        spans.add(Span(id, outer.headOption.map(_.id).getOrElse(0L), open.trace, name,
          t0, Clock.nowMs(), open.attrs.toMap))
      }
    }

  /** Attach a count or fact to the innermost open span of this thread. */
  def annotate(key: String, value: Any): Unit =
    if (enabled) stack.get.headOption.foreach(_.attrs(key) = value.toString)

  /** (span id, trace id) of the innermost open span, for spans recorded
    * later from data another thread produced.
    */
  def current: (Long, Long) =
    stack.get.headOption.map(o => (o.id, o.trace)).getOrElse((0L, 0L))

  /** Run `body` on this thread as if inside the span `parent` (from
    * [[current]] on another thread).
    */
  def under[T](parent: (Long, Long))(body: => T): T =
    if (!enabled || parent._1 == 0L) body
    else {
      val outer = stack.get
      stack.set(List(new Open(parent._1, parent._2)))
      try body finally stack.set(outer)
    }

  /** Record a finished span measured elsewhere; returns its id. */
  def record(name: String, parent: (Long, Long), startMs: Double, endMs: Double,
             attrs: Map[String, String] = Map.empty): Long =
    if (!enabled) 0L
    else {
      val id = ids.incrementAndGet()
      val trace = if (parent._2 == 0L) id else parent._2
      spans.add(Span(id, parent._1, trace, name, startMs, endMs, attrs))
      id
    }

  /** Self time per layer in ms: each span's duration minus the part of
    * its interval that its children cover.
    */
  def selfTimeByLayer: Map[String, Double] = {
    val all = spans.asScala.toSeq
    val children = all.groupBy(_.parent)
    all.groupBy(_.name.takeWhile(_ != '.')).map { case (layer, ss) =>
      layer -> ss.map { s =>
        val covered = children.getOrElse(s.id, Nil)
          .map(c => (math.max(c.startMs, s.startMs), math.min(c.endMs, s.endMs)))
          .filter { case (a, b) => b > a }
          .sortBy(_._1)
          .foldLeft((0.0, Double.NegativeInfinity)) { case ((sum, reach), (a, b)) =>
            if (b <= reach) (sum, reach)
            else (sum + b - math.max(a, reach), b)
          }._1
        math.max(0.0, s.endMs - s.startMs - covered)
      }.sum
    }
  }

  def count: Int = spans.size

  def writeJson(path: java.io.File, facts: Seq[(String, String)]): Unit = {
    path.getParentFile.mkdirs()
    val w = new java.io.PrintWriter(path, "UTF-8")
    try {
      w.println("{\"facts\": {" + facts.map { case (k, v) => s"${Json.str(k)}: ${Json.str(v)}" }
        .mkString(", ") + "},")
      w.println("\"spans\": [")
      w.println(spans.asScala.toSeq.sortBy(_.startMs).map { s =>
        s"""{"id": ${s.id}, "parent": ${s.parent}, "trace": ${s.trace}, "name": ${Json.str(s.name)}, """ +
          s""""start_ms": ${Json.num(s.startMs)}, "end_ms": ${Json.num(s.endMs)}, "attrs": {""" +
          s.attrs.map { case (k, v) => s"${Json.str(k)}: ${Json.str(v)}" }.mkString(", ") + "}}"
      }.mkString(",\n"))
      w.println("]}")
    } finally w.close()
  }
}

object Json {
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"' => "\\\""
      case '\\' => "\\\\"
      case '\n' => "\\n"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c => c.toString
    } + "\""

  def num(d: Double): String =
    if (d.isNaN || d.isInfinite) "null"
    else if (d == math.rint(d) && math.abs(d) < 1e15) d.toLong.toString
    else d.toString
}

/** Spark jobs and shuffle bytes, attributed to the label the benchmark
  * sets as a local property before it starts a query or runs a batch
  * plan. A streaming query's execution thread inherits the property
  * when it starts, so its trigger jobs carry its label too.
  */
final class JobProbe extends SparkListener {
  private final case class Job(label: String, timeMs: Long, stages: Seq[Int])
  private val jobs = new ConcurrentLinkedQueue[Job]()
  private val shuffleBytes = new ConcurrentHashMap[Int, LongAdder]()

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val label = Option(e.properties).map(_.getProperty(JobProbe.LabelKey)).orNull
    if (label != null) jobs.add(Job(label, e.time, e.stageIds))
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
    if (e.taskMetrics != null)
      shuffleBytes.computeIfAbsent(e.stageId, _ => new LongAdder)
        .add(e.taskMetrics.shuffleWriteMetrics.bytesWritten)

  private def in(label: String, fromMs: Double, toMs: Double): Seq[Job] =
    jobs.asScala.toSeq.filter(j => j.label == label && j.timeMs >= fromMs - 1 && j.timeMs <= toMs + 1)

  def jobCount(label: String, fromMs: Double, toMs: Double): Long = in(label, fromMs, toMs).size

  def shuffleWriteBytes(label: String, fromMs: Double, toMs: Double): Long =
    in(label, fromMs, toMs).flatMap(_.stages).distinct
      .map(s => Option(shuffleBytes.get(s)).map(_.sum).getOrElse(0L)).sum
}

object JobProbe {
  val LabelKey = "perfbench.label"
}

/** Garbage collection and heap, read from JMX over a window. */
final class JvmWindow {
  private def gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala
  private def heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala.filter(_.getType == MemoryType.HEAP)
  private val gcMs0 = gcs.map(_.getCollectionTime).sum
  private val gcCount0 = gcs.map(_.getCollectionCount).sum
  heapPools.foreach(_.resetPeakUsage())

  def gcMs: Double = (gcs.map(_.getCollectionTime).sum - gcMs0).toDouble
  def gcCount: Double = (gcs.map(_.getCollectionCount).sum - gcCount0).toDouble
  def heapPeakMb: Double = heapPools.map(_.getPeakUsage.getUsed).sum / 1048576.0
}
