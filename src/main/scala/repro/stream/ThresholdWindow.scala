package repro.stream

import org.apache.spark.sql.{Column, DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.streaming.{GroupState, GroupStateTimeout, OutputMode}

/** One sensor event entering a threshold window (generic shape: a key,
  * an event time, the thresholded measure, and a position).
  */
final case class ThresholdEvent(key: Long, tsMs: Long, value: Double,
                                lon: Double, lat: Double)

/** A closed threshold window: the maximal run of consecutive events of
  * one key during which the predicate held.
  *
  * @param cLon / cLat centroid of the positions inside the window —
  *   the queries use it as "where did this episode happen".
  */
final case class ThresholdWin(key: Long, startMs: Long, endMs: Long,
                              n: Long, avgValue: Double,
                              cLon: Double, cLat: Double)

private final case class ThresholdState(startMs: Long, endMs: Long, n: Long,
                                        sumValue: Double, sumLon: Double, sumLat: Double)

/** An event of the batch scan with its predicate already evaluated. */
private final case class FlaggedEvent(key: Long, tsMs: Long, hit: Boolean,
                                      value: Double, lon: Double, lat: Double)

/** The window the batch scan is extending. */
private final class OpenWindow(val key: Long, val startMs: Long) {
  var endMs = startMs
  var n = 0L
  var sumValue, sumLon, sumLat = 0.0

  def add(e: FlaggedEvent): Unit = {
    endMs = e.tsMs; n += 1
    sumValue += e.value; sumLon += e.lon; sumLat += e.lat
  }

  def close(minDurMs: Long): Option[ThresholdWin] =
    if (endMs - startMs >= minDurMs)
      Some(ThresholdWin(key, startMs, endMs, n, sumValue / n, sumLon / n, sumLat / n))
    else None
}

/** NebulaStream threshold windows: open while `pred(value)` holds,
  * close when it stops holding (or the stream ends for batch input).
  *
  * Two implementations with identical semantics on ordered input, both
  * folding each event once, in event-time order, like NebulaStream's
  * threshold window operator:
  *   - [[batch]]: one sorted scan per key (`mapPartitions` after a
  *     shuffle by key and a sort by event time);
  *   - [[streaming]]: `flatMapGroupsWithState` — the Structured
  *     Streaming extension point for custom window semantics, mirroring
  *     the paper's extension of NebulaStream's window operands.
  */
object ThresholdWindow {

  /** Batch threshold windows over columns (`key`, `tsMs`, `value`,
    * `lon`, `lat`, none of them null); returns one row per window with
    * duration >= `minDurMs`. A null predicate counts as false, and a
    * window still open at the end of input is emitted.
    */
  def batch(df: DataFrame, pred: Column, minDurMs: Long): DataFrame = {
    val spark = df.sparkSession
    import spark.implicits._
    df.select(col("key"), col("tsMs"), coalesce(pred, lit(false)).as("hit"),
        col("value"), col("lon"), col("lat"))
      .repartition(col("key"))
      .sortWithinPartitions("key", "tsMs")
      .as[FlaggedEvent]
      .mapPartitions(scan(_, minDurMs))
      .toDF()
  }

  /** Fold events sorted by (key, tsMs): a hit opens or extends the
    * key's window, anything else (a miss or a new key) closes it.
    */
  private def scan(events: Iterator[FlaggedEvent], minDurMs: Long): Iterator[ThresholdWin] = {
    var open: OpenWindow = null
    def close(): Option[ThresholdWin] = {
      val done = Option(open).flatMap(_.close(minDurMs))
      open = null
      done
    }
    events.flatMap { e =>
      if (e.hit && open != null && open.key == e.key) { open.add(e); None }
      else {
        val done = close()
        if (e.hit) { open = new OpenWindow(e.key, e.tsMs); open.add(e) }
        done
      }
    } ++ close()
  }

  /** Streaming threshold windows via `flatMapGroupsWithState`.
    *
    * Emits a window as soon as an event with `!pred(value)` arrives for
    * the key (append mode). Events within a micro-batch are sorted by
    * event time; cross-batch disorder is not handled (the bench feeds
    * in order, as the train gateway does in the paper's setup).
    */
  def streaming(ds: Dataset[ThresholdEvent], pred: Double => Boolean,
                minDurMs: Long)(implicit spark: SparkSession): Dataset[ThresholdWin] = {
    import spark.implicits._
    ds.groupByKey(_.key)
      .flatMapGroupsWithState[ThresholdState, ThresholdWin](
        OutputMode.Append(), GroupStateTimeout.NoTimeout()) {
        (key: Long, it: Iterator[ThresholdEvent], state: GroupState[ThresholdState]) =>
          val out = scala.collection.mutable.ArrayBuffer.empty[ThresholdWin]
          var st: Option[ThresholdState] = state.getOption
          it.toSeq.sortBy(_.tsMs).foreach { e =>
            if (pred(e.value)) {
              st = Some(st match {
                case Some(s) => ThresholdState(s.startMs, e.tsMs, s.n + 1,
                  s.sumValue + e.value, s.sumLon + e.lon, s.sumLat + e.lat)
                case None => ThresholdState(e.tsMs, e.tsMs, 1, e.value, e.lon, e.lat)
              })
            } else {
              st.foreach { s =>
                if (s.endMs - s.startMs >= minDurMs)
                  out += ThresholdWin(key, s.startMs, s.endMs, s.n,
                    s.sumValue / s.n, s.sumLon / s.n, s.sumLat / s.n)
              }
              st = None
            }
          }
          st match {
            case Some(s) => state.update(s)
            case None => if (state.exists) state.remove()
          }
          out.iterator
      }
  }
}
