package repro.stream

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

/** Geospatial complex event processing primitives (after Ziehn [10],
  * which NebulaMEOS extends): pattern detection over keyed event
  * streams expressed as Catalyst plans so they run in batch and
  * streaming alike.
  */
object Cep {

  /** Count pattern: fire when at least `k` events satisfying `pred`
    * fall in one sliding window (`sizeMs`, `slideMs`) for a key group.
    * The GCEP shape behind "repeated emergency brakes in a segment".
    */
  def countPattern(df: DataFrame, keys: Seq[String], tsMsCol: String,
                   pred: Column, sizeMs: Long, slideMs: Long, k: Long): DataFrame =
    Windows.sliding(df.where(pred), tsMsCol, sizeMs, slideMs, keys,
        Seq(count(lit(1)).as("n_events"),
            min(tsMsCol).as("first_ms"), max(tsMsCol).as("last_ms")))
      .where(col("n_events") >= k)
}
