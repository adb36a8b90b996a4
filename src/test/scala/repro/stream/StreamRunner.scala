package repro.stream

import org.apache.spark.sql.{DataFrame, Dataset, Encoder, SparkSession}
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.streaming.OutputMode

/** Runs a query over an in-memory event stream for the streaming
  * tests: events are fed through a `MemoryStream` one micro-batch per
  * chunk, and the query writes to a memory sink.
  */
object StreamRunner {

  /** Run `q` over `chunks` of events fed batch-by-batch, each chunk split
    * into `partitions` partitions; returns the memory sink `name` after
    * all input is processed. The sink table stays readable after the
    * query stops.
    */
  def runCollect[T: Encoder](spark: SparkSession, chunks: Seq[Seq[T]],
                             q: Dataset[T] => DataFrame,
                             outputMode: OutputMode = OutputMode.Append(),
                             name: String = "stream_out", partitions: Int = 1): DataFrame = {
    implicit val sqlCtx: org.apache.spark.sql.SQLContext = spark.sqlContext
    val source = MemoryStream[T](partitions)
    val query = q(source.toDS())
      .writeStream.format("memory").queryName(name).outputMode(outputMode).start()
    try chunks.foreach { c => source.addData(c); query.processAllAvailable() }
    finally query.stop()
    spark.table(name)
  }
}
