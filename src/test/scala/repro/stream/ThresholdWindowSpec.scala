package repro.stream

import org.apache.spark.sql.execution.exchange.ShuffleExchangeExec
import org.apache.spark.sql.execution.window.WindowExec
import org.apache.spark.sql.functions._
import org.apache.spark.sql.streaming.OutputMode

import repro.{RowCompare, SparkSpec}
import repro.core.Baselines

class ThresholdWindowSpec extends SparkSpec {

  private lazy val sp = spark
  import sp.implicits._

  /** key=1: two slow episodes (t 10..14 and 20..21), key=2: always fast. */
  private def sample = {
    import spark.implicits._
    val k1 = (0 until 30).map { i =>
      val v = if ((i >= 10 && i <= 14) || (i >= 20 && i <= 21)) 0.0 else 50.0
      (1L, i * 1000L, v, 4.0 + i * 0.001, 50.8)
    }
    val k2 = (0 until 30).map(i => (2L, i * 1000L, 80.0, 4.5, 50.5))
    (k1 ++ k2).toDF("key", "tsMs", "value", "lon", "lat")
  }

  test("batch: finds both episodes of key 1 and none of key 2") {
    val out = ThresholdWindow.batch(sample, col("value") < 1.0, 0L)
      .collect().map(r => (r.getLong(0), r.getLong(1), r.getLong(2), r.getLong(3)))
      .sortBy(_._2)
    assert(out.toSeq == Seq((1L, 10000L, 14000L, 5L), (1L, 20000L, 21000L, 2L)))
  }

  test("batch: minDur filters short episodes") {
    val out = ThresholdWindow.batch(sample, col("value") < 1.0, 3000L)
      .collect().map(r => (r.getLong(1), r.getLong(2)))
    assert(out.toSeq == Seq((10000L, 14000L)))
  }

  test("batch: centroid and average value are per-episode") {
    val r = ThresholdWindow.batch(sample, col("value") < 1.0, 3000L).head()
    // Episode rows i=10..14: lon = 4.010 .. 4.014, avg = 4.012.
    assert(math.abs(r.getAs[Double]("cLon") - 4.012) < 1e-12)
    assert(r.getAs[Double]("avgValue") == 0.0)
  }

  test("batch: window open at end of input is still emitted") {
    import spark.implicits._
    val df = (0 until 5).map(i => (1L, i * 1000L, 0.0, 4.0, 50.0))
      .toDF("key", "tsMs", "value", "lon", "lat")
    val out = ThresholdWindow.batch(df, col("value") < 1.0, 0L).collect()
    assert(out.length == 1 && out.head.getLong(2) == 4000L)
  }

  test("batch equals the gaps-and-islands baseline on shuffled input with null predicates") {
    val rnd = new scala.util.Random(11)
    // key 0: a window of exactly 3 s, then one of 2 s; key 1: a single
    // event, then a window open at the end of input; keys 2..39: runs of
    // true / false / null predicate values at irregular times, each key
    // ending in an open window, so the last key of every partition does.
    val planted = Seq(
      (0L, Seq(Some(true), Some(true), Some(true), Some(true), Some(false),
        Some(true), Some(true), Some(true), None)),
      (1L, Seq(Some(false), Some(true), Some(false), Some(true), Some(true))))
    val random = (2L until 40L).map(k => k -> (Seq.fill(59)(rnd.nextInt(7) match {
      case 0 | 1 | 2 => Some(true)
      case 3 | 4 => Some(false)
      case _ => None
    }) :+ Some(true)))
    val rows = (planted ++ random).flatMap { case (k, ps) =>
      val ts = if (k < 2) ps.indices.map(_ * 1000L)
               else ps.indices.scanLeft(0L)((t, _) => t + 500L + rnd.nextInt(2500)).tail
      ps.zip(ts).map { case (p, t) =>
        (k, t, p, rnd.nextDouble() * 10, 4.0 + rnd.nextDouble(), 50.5 + rnd.nextDouble())
      }
    }
    val df = rnd.shuffle(rows).toDF("key", "tsMs", "p", "value", "lon", "lat")
    val partitions = spark.conf.get("spark.sql.shuffle.partitions")
    spark.conf.set("spark.sql.shuffle.partitions", "8")
    try {
      for (minDur <- Seq(0L, 3000L)) {
        val got = ThresholdWindow.batch(df, col("p"), minDur)
        RowCompare.assertSameRows(got, Baselines.thresholdWindows(df, col("p"), minDur))
        val wins = got.as[ThresholdWin].collect()
        assert(wins.exists(w => w.key == 0L && w.startMs == 0L && w.endMs == 3000L))
        assert(wins.exists(w => w.key == 1L && w.startMs == 3000L && w.endMs == 4000L) == (minDur == 0L))
        assert(wins.exists(w => w.key == 1L && w.n == 1L) == (minDur == 0L))
        assert(wins.forall(w => w.endMs - w.startMs >= minDur))
      }
    } finally spark.conf.set("spark.sql.shuffle.partitions", partitions)
  }

  test("batch runs as one shuffle and one sorted scan, no window operator") {
    val nodes = executedNodes(ThresholdWindow.batch(sample, col("value") < 1.0, 0L))
    assert(!nodes.exists(_.isInstanceOf[WindowExec]), nodes)
    assert(nodes.count(_.isInstanceOf[ShuffleExchangeExec]) == 1, nodes)
  }

  test("streaming matches batch on the same (closed) input") {
    implicit val s = spark
    import spark.implicits._
    val events = sample.as[ThresholdEvent].collect().sortBy(e => (e.tsMs, e.key)).toSeq
    val got = StreamRunner.runCollect(spark, Seq(events),
        (ds: org.apache.spark.sql.Dataset[ThresholdEvent]) =>
          ThresholdWindow.streaming(ds, _ < 1.0, 0L).toDF(),
        OutputMode.Append(), "tw_stream_1")
      .map(r => (r.getLong(0), r.getLong(1), r.getLong(2), r.getLong(3)))
      .sortBy(_._2)
    assert(got.toSeq == Seq((1L, 10000L, 14000L, 5L), (1L, 20000L, 21000L, 2L)))
  }

  test("streaming: a window spanning two micro-batches is stitched") {
    implicit val s = spark
    val chunk1 = (0 until 5).map(i => ThresholdEvent(1L, i * 1000L, 0.0, 4.0, 50.0))
    val chunk2 = Seq(ThresholdEvent(1L, 5000L, 0.0, 4.0, 50.0),
      ThresholdEvent(1L, 6000L, 99.0, 4.0, 50.0))
    val got = StreamRunner.runCollect(spark, Seq(chunk1, chunk2),
        (ds: org.apache.spark.sql.Dataset[ThresholdEvent]) =>
          ThresholdWindow.streaming(ds, _ < 1.0, 0L).toDF(),
        OutputMode.Append(), "tw_stream_2")
      .map(r => (r.getLong(1), r.getLong(2), r.getLong(3)))
    assert(got.toSeq == Seq((0L, 5000L, 6L)))
  }

  test("streaming: window still open when stream ends is not emitted") {
    implicit val s = spark
    val chunk = (0 until 5).map(i => ThresholdEvent(1L, i * 1000L, 0.0, 4.0, 50.0))
    val got = StreamRunner.runCollect(spark, Seq(chunk),
      (ds: org.apache.spark.sql.Dataset[ThresholdEvent]) =>
        ThresholdWindow.streaming(ds, _ < 1.0, 0L).toDF(),
      OutputMode.Append(), "tw_stream_3")
    assert(got.isEmpty)
  }

  test("streaming: minDur filtering applies") {
    implicit val s = spark
    val chunk = Seq(
      ThresholdEvent(1L, 0L, 0.0, 4.0, 50.0), ThresholdEvent(1L, 1000L, 0.0, 4.0, 50.0),
      ThresholdEvent(1L, 2000L, 9.0, 4.0, 50.0),
      ThresholdEvent(1L, 3000L, 0.0, 4.0, 50.0), ThresholdEvent(1L, 9000L, 0.0, 4.0, 50.0),
      ThresholdEvent(1L, 10000L, 9.0, 4.0, 50.0))
    val got = StreamRunner.runCollect(spark, Seq(chunk),
        (ds: org.apache.spark.sql.Dataset[ThresholdEvent]) =>
          ThresholdWindow.streaming(ds, _ < 1.0, 5000L).toDF(),
        OutputMode.Append(), "tw_stream_4")
      .map(r => (r.getLong(1), r.getLong(2)))
    assert(got.toSeq == Seq((3000L, 9000L)))
  }
}
