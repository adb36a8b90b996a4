package repro.stream

import org.apache.spark.sql.{DataFrame, Dataset}
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
    val out = ThresholdWindow(sample, col("value") < 1.0, 0L)
      .collect().map(r => (r.getLong(0), r.getLong(1), r.getLong(2), r.getLong(3)))
      .sortBy(_._2)
    assert(out.toSeq == Seq((1L, 10000L, 14000L, 5L), (1L, 20000L, 21000L, 2L)))
  }

  test("batch: minDur filters short episodes") {
    val out = ThresholdWindow(sample, col("value") < 1.0, 3000L)
      .collect().map(r => (r.getLong(1), r.getLong(2)))
    assert(out.toSeq == Seq((10000L, 14000L)))
  }

  test("batch: centroid and average value are per-episode") {
    val r = ThresholdWindow(sample, col("value") < 1.0, 3000L).head()
    // Episode rows i=10..14: lon = 4.010 .. 4.014, avg = 4.012.
    assert(math.abs(r.getAs[Double]("cLon") - 4.012) < 1e-12)
    assert(r.getAs[Double]("avgValue") == 0.0)
  }

  test("batch: window open at end of input is still emitted") {
    import spark.implicits._
    val df = (0 until 5).map(i => (1L, i * 1000L, 0.0, 4.0, 50.0))
      .toDF("key", "tsMs", "value", "lon", "lat")
    val out = ThresholdWindow(df, col("value") < 1.0, 0L).collect()
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
        val got = ThresholdWindow(df, col("p"), minDur)
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
    val nodes = executedNodes(ThresholdWindow(sample, col("value") < 1.0, 0L))
    assert(!nodes.exists(_.isInstanceOf[WindowExec]), nodes)
    assert(nodes.count(_.isInstanceOf[ShuffleExchangeExec]) == 1, nodes)
  }

  /** One event: key, tsMs, value (None is null), lon, lat. */
  private type Ev = (Long, Long, Option[Double], Double, Double)

  private def ev(key: Long, tsMs: Long, value: Double): Ev =
    (key, tsMs, Some(value), 4.0 + tsMs * 1e-6, 50.0 + key * 0.1)

  private def frame(ds: Dataset[Ev]): DataFrame = ds.toDF("key", "tsMs", "value", "lon", "lat")

  /** The threshold windows of `value < 1` over `chunks`, one micro-batch
    * each, sorted by (key, startMs).
    */
  private def stream(chunks: Seq[Seq[Ev]], minDurMs: Long, name: String): Seq[ThresholdWin] = {
    StreamRunner.runCollect[Ev](spark, chunks,
        ds => ThresholdWindow(frame(ds), col("value") < 1.0, minDurMs), OutputMode.Append(), name)
      .as[ThresholdWin].collect().toSeq.sortBy(w => (w.key, w.startMs))
  }

  /** The batch windows of the same input that a later miss closed. */
  private def closedBatch(chunks: Seq[Seq[Ev]], minDurMs: Long): Seq[ThresholdWin] = {
    val lastTs = chunks.flatten.map(_._2).max
    ThresholdWindow(frame(chunks.flatten.toDS()), col("value") < 1.0, minDurMs)
      .where(col("endMs") < lastTs)
      .as[ThresholdWin].collect().toSeq.sortBy(w => (w.key, w.startMs))
  }

  test("streaming matches batch on the same (closed) input") {
    val events = sample.as[(Long, Long, Double, Double, Double)].collect()
      .sortBy(e => (e._2, e._1)).map(e => (e._1, e._2, Option(e._3), e._4, e._5)).toSeq
    val got = stream(Seq(events), 0L, "tw_stream_1")
    assert(got.map(w => (w.key, w.startMs, w.endMs, w.n)) ==
      Seq((1L, 10000L, 14000L, 5L), (1L, 20000L, 21000L, 2L)))
    assert(got == closedBatch(Seq(events), 0L))
  }

  test("streaming: a window spanning two micro-batches is stitched") {
    val chunk1 = (0 until 5).map(i => ev(1L, i * 1000L, 0.0))
    val chunk2 = Seq(ev(1L, 5000L, 0.0), ev(1L, 6000L, 99.0))
    val got = stream(Seq(chunk1, chunk2), 0L, "tw_stream_2")
    assert(got.map(w => (w.startMs, w.endMs, w.n)) == Seq((0L, 5000L, 6L)))
  }

  test("streaming: window still open when stream ends is not emitted") {
    val chunk = (0 until 5).map(i => ev(1L, i * 1000L, 0.0))
    assert(stream(Seq(chunk), 0L, "tw_stream_3").isEmpty)
  }

  test("streaming: minDur filtering applies") {
    val chunk = Seq(ev(1L, 0L, 0.0), ev(1L, 1000L, 0.0), ev(1L, 2000L, 9.0),
      ev(1L, 3000L, 0.0), ev(1L, 9000L, 0.0), ev(1L, 10000L, 9.0))
    val got = stream(Seq(chunk), 5000L, "tw_stream_4")
    assert(got.map(w => (w.startMs, w.endMs)) == Seq((3000L, 9000L)))
  }

  test("streaming: a null or NaN value is no hit, as in batch") {
    // Hits at 0..2 s, a null at 3 s, hits at 4..5 s, a NaN at 6 s, hits
    // at 7..8 s and a miss at 9 s: three windows, each closed.
    val chunk = (0 until 10).map { i =>
      val v = i match { case 3 => None; case 6 => Some(Double.NaN); case 9 => Some(5.0); case _ => Some(0.0) }
      (1L, i * 1000L, v, 4.0, 50.0)
    }
    val got = stream(Seq(chunk), 0L, "tw_stream_null")
    assert(got.map(w => (w.startMs, w.endMs, w.n)) ==
      Seq((0L, 2000L, 3L), (4000L, 5000L, 2L), (7000L, 8000L, 2L)))
    assert(got == closedBatch(Seq(chunk), 0L))
  }

  test("streaming: two keys interleaved across three micro-batches equal batch on closed windows") {
    // Key 1 stops at 5..24 s and 40..44 s, key 2 at 0..11 s, 18..33 s and
    // from 55 s on; the chunks end at 19, 39 and 59 s.
    def stopped(key: Long, t: Int): Boolean =
      if (key == 1L) (t >= 5 && t <= 24) || (t >= 40 && t <= 44)
      else t <= 11 || (t >= 18 && t <= 33) || t >= 55
    val events = for (t <- 0 until 60; key <- Seq(2L, 1L))
      yield ev(key, t * 1000L, if (stopped(key, t)) 0.0 else 30.0 + t)
    val chunks = events.grouped(40).toSeq
    assert(chunks.size == 3)
    for ((minDur, name) <- Seq(0L -> "tw_stream_keys_0", 10000L -> "tw_stream_keys_10")) {
      val got = stream(chunks, minDur, name)
      assert(got == closedBatch(chunks, minDur))
      assert(got.map(w => (w.key, w.startMs, w.endMs)) ==
        Seq((1L, 5000L, 24000L), (1L, 40000L, 44000L), (2L, 0L, 11000L), (2L, 18000L, 33000L))
          .filter { case (_, s, e) => e - s >= minDur })
    }
  }
}
