package repro.stream

import org.apache.spark.sql.{DataFrame, Dataset, Encoder, Row, SparkSession}
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.streaming.OutputMode

/** Harness for running a query over an in-memory event stream —
  * the reproduction's stand-in for NebulaStream's source/sink runtime.
  *
  * Events are fed through a `MemoryStream` in micro-batch chunks; the
  * query writes to a memory sink. [[measure]] reports end-to-end
  * wall-clock throughput (events/s) for the throughput table, one
  * micro-batch per chunk.
  */
object StreamRunner {

  /** Run `q` over `chunks` of events fed batch-by-batch; returns the
    * collected sink rows after all input is processed.
    */
  def runCollect[T: Encoder](spark: SparkSession, chunks: Seq[Seq[T]],
                             q: Dataset[T] => DataFrame,
                             outputMode: OutputMode = OutputMode.Append(),
                             name: String = "stream_out"): Seq[Row] = {
    implicit val sqlCtx: org.apache.spark.sql.SQLContext = spark.sqlContext
    val source = MemoryStream[T]
    val query = q(source.toDS())
      .writeStream.format("memory").queryName(name).outputMode(outputMode).start()
    try {
      chunks.foreach { c => source.addData(c); query.processAllAvailable() }
      spark.table(name).collect().toSeq
    } finally query.stop()
  }

  /** Result of one streaming throughput measurement: the input rows
    * the engine counted and the micro-batches that had input.
    */
  final case class Measurement(events: Long, seconds: Double, outRows: Long,
                               triggers: Int) {
    def eventsPerSec: Double = events / seconds
  }

  /** Feed `chunks` one micro-batch each — a chunk, then a drain, as in
    * [[runCollect]] — and measure wall-clock time from first feed to
    * full drain of the sink.
    */
  def measure[T: Encoder](spark: SparkSession, chunks: Seq[Seq[T]],
                          q: Dataset[T] => DataFrame,
                          outputMode: OutputMode = OutputMode.Append(),
                          name: String = "stream_bench"): Measurement = {
    implicit val sqlCtx: org.apache.spark.sql.SQLContext = spark.sqlContext
    val source = MemoryStream[T]
    val query = q(source.toDS())
      .writeStream.format("memory").queryName(name).outputMode(outputMode).start()
    try {
      // batch id -> input rows; read after every drain, as the engine
      // keeps only its most recent progress reports
      val inputRows = scala.collection.mutable.Map.empty[Long, Long]
      val t0 = System.nanoTime()
      chunks.foreach { c =>
        source.addData(c)
        query.processAllAvailable()
        query.recentProgress.foreach(p => if (p.numInputRows > 0) inputRows(p.batchId) = p.numInputRows)
      }
      val secs = (System.nanoTime() - t0) / 1e9
      Measurement(inputRows.values.sum, secs, spark.table(name).count(), inputRows.size)
    } finally query.stop()
  }
}
