package repro.stream

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

/** NebulaStream's time-based windows (aligned to the epoch, size +
  * slide) over event streams: each computes its `win_start` itself and
  * groups by it, so one plan runs on batch and streaming input.
  * Threshold windows are [[ThresholdWindow]].
  *
  * Windows are keyed on epoch-millisecond `LongType` columns so outputs
  * stay oracle-comparable (DuckDB reproduces the assignment with integer
  * arithmetic).
  */
object Windows {

  /** Start of the tumbling window of `sizeMs` containing `tsMs` (epoch
    * aligned, like NebulaStream/Spark tumbling windows).
    */
  def tumbleStart(tsMs: Column, sizeMs: Long): Column =
    (tsMs.cast("long") / sizeMs).cast("long") * sizeMs

  /** Tumbling-window aggregation: `groupBy(win_start, keys).agg(...)`.
    * Output carries `win_start` (epoch ms) plus the key and agg columns.
    */
  def tumbling(df: DataFrame, tsMsCol: String, sizeMs: Long,
               keys: Seq[String], aggs: Seq[Column]): DataFrame = {
    val g = df.withColumn("win_start", tumbleStart(col(tsMsCol), sizeMs))
    g.groupBy((col("win_start") +: keys.map(col)): _*).agg(aggs.head, aggs.tail: _*)
  }

  /** Sliding-window aggregation with window `sizeMs` and slide
    * `slideMs` (sizeMs must be a multiple of slideMs). Each event lands
    * in `sizeMs / slideMs` windows; implemented by explicit replication
    * so the same plan runs in batch and streaming and the oracle can
    * mirror it with a cross join on offsets.
    */
  def sliding(df: DataFrame, tsMsCol: String, sizeMs: Long, slideMs: Long,
              keys: Seq[String], aggs: Seq[Column]): DataFrame = {
    require(sizeMs % slideMs == 0, s"sizeMs=$sizeMs must be a multiple of slideMs=$slideMs")
    val k = (sizeMs / slideMs).toInt
    val replicated = df
      .withColumn("_off", explode(sequence(lit(0), lit(k - 1))))
      .withColumn("win_start",
        ((col(tsMsCol).cast("long") / slideMs).cast("long") - col("_off")) * slideMs)
      // A window [ws, ws+size) contains ts iff ws <= ts < ws+size; the
      // subtraction above can only under-shoot, so keep valid rows only.
      .where(col(tsMsCol) >= col("win_start") &&
             col(tsMsCol) < col("win_start") + sizeMs)
      .drop("_off")
    replicated.groupBy((col("win_start") +: keys.map(col)): _*).agg(aggs.head, aggs.tail: _*)
  }
}
