package repro.bench

import java.util.concurrent.{ExecutionException, FutureTask, TimeUnit, TimeoutException}
import org.apache.spark.sql.SparkSession
import repro.core.{DatalogEngine, NonConvergenceException, UnsupportedProgramException}
import repro.bench.Workloads.Workload

/** Benchmark harness: runs (engine, workload) pairs with a wall-clock
  * timeout, classifies outcomes the way the paper's figures do (OOM and
  * timeouts are reported, not crashed on), and measures end-to-end time
  * including result materialization.
  */
object Harness {

  sealed trait Status
  final case class Ok(
      seconds: Double,
      resultSize: Long,
      /** Process CPU seconds consumed during the run (all engines share the
        * JVM, so this is the engine's own burn). */
      cpuSeconds: Double = 0.0,
      /** Peak sampled JVM heap during the run, MB. */
      peakHeapMb: Long = 0L,
  ) extends Status {
    /** CPU utilization relative to `cores` (Table 1 / Figure 16 analog). */
    def utilization(cores: Int): Double = cpuSeconds / math.max(1e-9, seconds * cores)
  }
  case object Unsupported extends Status
  final case class TimedOut(limitSec: Int) extends Status
  final case class Oom(msg: String) extends Status
  /** A recursive stratum still derived new tuples at the engine's iteration cap. */
  final case class NonConverged(iterations: Int) extends Status
  final case class Crashed(msg: String) extends Status

  /** One report cell: `engine` names the column and `workload` the row. */
  final case class Result(engine: String, workload: String, status: Status)

  /** One timed evaluation: evaluate + count every IDB (materialization is
    * part of the measured time, as in the paper's end-to-end numbers).
    */
  def timedRun(engine: DatalogEngine, w: Workload)(implicit spark: SparkSession): Status = {
    val os = java.lang.management.ManagementFactory.getOperatingSystemMXBean
      .asInstanceOf[com.sun.management.OperatingSystemMXBean]
    @volatile var peakHeap = 0L
    @volatile var sampling = true
    val sampler = new Thread(() => {
      val rt = Runtime.getRuntime
      while (sampling) {
        peakHeap = math.max(peakHeap, rt.totalMemory() - rt.freeMemory())
        try Thread.sleep(50) catch { case _: InterruptedException => sampling = false }
      }
    }, "bench-heap-sampler")
    sampler.setDaemon(true)
    sampler.start()
    val cpu0 = os.getProcessCpuTime
    val t0 = System.nanoTime()
    try {
      val out = engine.evaluate(w.program, w.edb(spark))
      val size = out(w.primaryIdb).count()
      out.foreach { case (p, df) => if (p != w.primaryIdb) df.count() }
      val wall = (System.nanoTime() - t0) / 1e9
      val cpu = (os.getProcessCpuTime - cpu0) / 1e9
      Ok(wall, size, cpu, peakHeap / (1024 * 1024))
    } finally { sampling = false; sampler.interrupt() }
  }

  /** One timed run under a wall-clock timeout; Spark jobs are cancelled via
    * job groups on timeout. Warm-up is the caller's job (`Tables.warmJvm`).
    */
  def run(engine: DatalogEngine, w: Workload, timeoutSec: Int)(implicit spark: SparkSession): Result = {
    val group = s"bench-${engine.name}-${w.name}"
    val fut = new FutureTask[Status](() => {
      spark.sparkContext.setJobGroup(group, group, interruptOnCancel = true)
      try timedRun(engine, w) finally spark.sparkContext.clearJobGroup()
    })
    val worker = new Thread(fut, group)
    worker.setDaemon(true)
    worker.start()
    val status =
      try fut.get(timeoutSec.toLong, TimeUnit.SECONDS)
      catch {
        case _: TimeoutException =>
          spark.sparkContext.cancelJobGroup(group)
          fut.cancel(true)
          TimedOut(timeoutSec)
        case e: ExecutionException =>
          e.getCause match {
            case _: UnsupportedProgramException => Unsupported
            case n: NonConvergenceException     => NonConverged(n.iterations)
            case o: OutOfMemoryError            => Oom(o.getMessage)
            case other                          => Crashed(s"${other.getClass.getSimpleName}: ${other.getMessage}")
          }
      }
    Result(engine.name, w.name, status)
  }

  /** A paper-table report: the results it was built from, and their markdown
    * rendering. Bench suites assert on `results`, never on `text`.
    */
  final case class Report(results: Seq[Result], text: String) {
    /** Cells where the engine failed: it crashed or did not converge. */
    def crashed: Seq[Result] =
      results.filter(_.status match { case _: Crashed | _: NonConverged => true; case _ => false })

    /** Cells without a fixpoint for any reason but an unsupported fragment. */
    def incomplete: Seq[Result] =
      results.filter(_.status match { case _: Ok | Unsupported => false; case _ => true })
  }

  object Report {
    def status(st: Status, ok: Ok => String = o => f"${o.seconds}%.2f s"): String = st match {
      case o: Ok           => ok(o)
      case Unsupported     => "--"
      case TimedOut(sec)   => s">${sec}s"
      case Oom(_)          => "OOM"
      case NonConverged(n) => s"no fixpoint after $n iterations"
      case Crashed(_)      => "ERROR"
    }

    /** Markdown table with one row per workload and one column per engine, in
      * first-seen order. A cell shows its status (via `show`) and the paper's
      * value in brackets; a cell with neither is "-".
      */
    def markdown(
        title: String,
        results: Seq[Result],
        paper: (String, String) => Option[String] = (_, _) => None,
        show: Status => String = status(_),
    ): String = {
      val rows = results.map(_.workload).distinct
      val cols = results.map(_.engine).distinct
      val byCell = results.map(r => (r.workload, r.engine) -> r.status).toMap
      def cell(row: String, col: String): String =
        (byCell.get((row, col)).map(show) ++ paper(row, col).map(p => s"[$p]")).mkString(" ")
      val lines = s"| | ${cols.mkString(" | ")} |" +: s"|---${"|---" * cols.size}|" +:
        rows.map(row => s"| $row | ${cols.map(c => Some(cell(row, c)).filter(_.nonEmpty).getOrElse("-")).mkString(" | ")} |")
      s"\n### $title\n\n${lines.mkString("\n")}\n"
    }
  }
}
