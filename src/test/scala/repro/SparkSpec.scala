package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.execution.SparkPlan
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.columnar.InMemoryTableScanExec
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (4g when unset). Automatic broadcast joins are
  * disabled so the joins without a broadcast hint (the naive baselines'
  * zone cross joins) take the shuffle path at every scale factor; the
  * Q4 baseline broadcasts its weather table by hint.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  /** Run `body` with expression code generation on (`CODEGEN_ONLY`,
    * whole-stage codegen included) or off (`NO_CODEGEN`, every
    * expression interpreted through `eval`).
    */
  def withCodegen[A](mode: String)(body: => A): A = {
    val confs = Seq("spark.sql.codegen.factoryMode" -> mode,
      "spark.sql.codegen.wholeStage" -> (mode == "CODEGEN_ONLY").toString)
    confs.foreach { case (k, v) => spark.conf.set(k, v) }
    try body finally confs.foreach { case (k, _) => spark.conf.unset(k) }
  }

  /** Every node of `df`'s physical plan once executed, through adaptive
    * query stages and into the plans of cached relations it reads.
    */
  def executedNodes(df: DataFrame): Seq[SparkPlan] = {
    df.collect()
    def nodes(p: SparkPlan): Seq[SparkPlan] = SparkSpec.Plans.collect(p) {
      case c: InMemoryTableScanExec => c +: nodes(c.relation.cachedPlan)
      case n => Seq(n)
    }.flatten
    nodes(df.queryExecution.executedPlan)
  }

  override def afterAll(): Unit = { super.afterAll() }
}

object SparkSpec {
  private object Plans extends AdaptiveSparkPlanHelper

  lazy val shared: SparkSession = {
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
