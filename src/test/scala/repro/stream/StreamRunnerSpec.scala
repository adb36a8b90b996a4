package repro.stream

import org.apache.spark.sql.Dataset
import org.apache.spark.sql.streaming.OutputMode

import repro.SparkSpec

class StreamRunnerSpec extends SparkSpec {

  test("measure runs one micro-batch per chunk and counts every event fed") {
    import spark.implicits._
    val chunks = (0 until 5).map(c => (0 until 1000 + 100 * c).map(i => c * 10000L + i))
    val m = StreamRunner.measure[Long](spark, chunks,
      (ds: Dataset[Long]) => ds.toDF("v").where($"v" % 2 === 0), OutputMode.Append(),
      "stream_runner_spec")
    assert(m.triggers == chunks.size)
    assert(m.events == chunks.map(_.size).sum)
    assert(m.outRows == chunks.flatten.count(_ % 2 == 0))
  }
}
