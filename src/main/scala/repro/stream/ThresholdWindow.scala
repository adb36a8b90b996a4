package repro.stream

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.streaming.{GroupState, GroupStateTimeout, OutputMode}

/** A closed threshold window: the maximal run of consecutive events of
  * one key during which the predicate held.
  *
  * @param cLon / cLat centroid of the positions inside the window —
  *   the queries use it as "where did this episode happen". Each
  *   averages its coordinate's finite values, and is null without one.
  */
final case class ThresholdWin(key: Long, startMs: Long, endMs: Long,
                              n: Long, avgValue: Double,
                              cLon: Option[Double], cLat: Option[Double])

/** An event with its predicate evaluated; a null coordinate reads as NaN. */
private final case class FlaggedEvent(key: Long, tsMs: Long, hit: Boolean,
                                      value: Double, lon: Double, lat: Double)

/** The window being extended: the batch scan mutates one per partition,
  * and a stream stores one per key between micro-batches.
  */
private final case class OpenWindow(key: Long, startMs: Long, var endMs: Long = 0, var n: Long = 0,
                                    var sumValue: Double = 0, var sumLon: Double = 0,
                                    var nLon: Long = 0, var sumLat: Double = 0, var nLat: Long = 0) {
  def add(e: FlaggedEvent): Unit = {
    endMs = e.tsMs; n += 1; sumValue += e.value
    if (e.lon.isFinite) { sumLon += e.lon; nLon += 1 }
    if (e.lat.isFinite) { sumLat += e.lat; nLat += 1 }
  }

  def close(minDurMs: Long): Option[ThresholdWin] =
    if (endMs - startMs >= minDurMs)
      Some(ThresholdWin(key, startMs, endMs, n, sumValue / n,
        Option.when(nLon > 0)(sumLon / nLon), Option.when(nLat > 0)(sumLat / nLat)))
    else None
}

/** The threshold fold over events sorted by (key, tsMs), continuing
  * `open`: a hit opens or extends the key's window, anything else (a
  * miss or a new key) closes it.
  */
private final class Fold(minDurMs: Long, var open: OpenWindow) {
  def apply(e: FlaggedEvent): Option[ThresholdWin] =
    if (e.hit && open != null && open.key == e.key) { open.add(e); None }
    else {
      val done = close()
      if (e.hit) { open = OpenWindow(e.key, e.tsMs); open.add(e) }
      done
    }

  def close(): Option[ThresholdWin] = {
    val done = Option(open).flatMap(_.close(minDurMs))
    open = null
    done
  }
}

/** NebulaStream threshold windows: open while a predicate holds, close
  * when it stops holding. Each event is folded once, in event-time
  * order, like NebulaStream's threshold window operator; the physical
  * path follows the input.
  */
object ThresholdWindow {

  /** Threshold windows over columns `key`, `tsMs`, `value`, `lon` and
    * `lat`; one row per window with duration >= `minDurMs`. A null
    * predicate counts as false, and a null value reads as NaN. The
    * centroid skips null and non-finite coordinates.
    *   - Batch input: a shuffle by key, a sort by (key, tsMs) and one
    *     `mapPartitions` scan. A window still open at the end of input
    *     is emitted.
    *   - Streaming input: per-key group state; each key's events of a
    *     micro-batch are sorted by `tsMs` and folded from the stored
    *     window. A window still open at the end of a micro-batch is
    *     stored, not emitted. Disorder across micro-batches is not
    *     handled.
    */
  def apply(df: DataFrame, pred: Column, minDurMs: Long): DataFrame = {
    val spark = df.sparkSession
    import spark.implicits._
    val events = df.select(col("key") +: col("tsMs") +: coalesce(pred, lit(false)).as("hit") +:
      Seq("value", "lon", "lat").map(c => coalesce(col(c), lit(Double.NaN)).as(c)): _*)
    if (df.isStreaming)
      events.groupBy("key").as[Long, FlaggedEvent]
        .flatMapGroupsWithState[OpenWindow, ThresholdWin](
          OutputMode.Append(), GroupStateTimeout.NoTimeout()) {
          (_: Long, group: Iterator[FlaggedEvent], state: GroupState[OpenWindow]) =>
            val fold = new Fold(minDurMs, state.getOption.orNull)
            val closed = group.toArray.sortBy(_.tsMs).flatMap(fold(_))
            if (fold.open != null) state.update(fold.open)
            else if (state.exists) state.remove()
            closed.iterator
        }.toDF()
    else
      events.repartition(col("key"))
        .sortWithinPartitions("key", "tsMs")
        .as[FlaggedEvent]
        .mapPartitions { sorted =>
          val fold = new Fold(minDurMs, null)
          sorted.flatMap(fold(_)) ++ fold.close()
        }
        .toDF()
  }
}
