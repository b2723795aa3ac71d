package perfbench

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import org.apache.spark.sql.execution.SQLExecution
import org.apache.spark.sql.execution.ui.{SparkListenerSQLExecutionEnd, SparkListenerSQLExecutionStart}
import scala.collection.mutable

/** The engine method that issued a Spark job. */
object Sites {
  /** Every site, in report order; `result` is the benchmark's own count of
    * the returned IDBs and `other` catches anything unattributed.
    */
  val all: Seq[String] = Seq("loadEdbs", "evalIdb", "materialize", "setDifference", "aggStep",
    "maybeCompact", "tryEvaluate", "result", "other")

  private val engineSites = all.toSet - "result" - "other"

  /** `repro.core.Evaluation.$anonfun$loadEdbs$1(RecStepEngine.scala:118)` -> `loadEdbs`. */
  private def method(frame: String): String = {
    val qualified = frame.takeWhile(_ != '(')
    val m = qualified.substring(qualified.lastIndexOf('.') + 1)
    val unmangled = m.substring(m.lastIndexOf("$$") match { case -1 => 0; case i => i + 2 })
    unmangled.stripPrefix("$anonfun$").takeWhile(_ != '$')
  }

  /** Attribute a long-form call site: the innermost `repro.` frame that is a
    * known site, except that a `materialize` called from `maybeCompact` is
    * the compaction. Jobs with no `repro.` frame that the benchmark issued
    * are `result`.
    */
  def of(callSite: String): String = {
    val frames = callSite.linesIterator.map(_.trim).toVector
    val repro = frames.filter(_.startsWith("repro.")).map(method)
    repro.indexWhere(engineSites) match {
      case -1 => if (repro.isEmpty && frames.exists(_.startsWith("perfbench."))) "result" else "other"
      case i  => if (repro(i) == "materialize" && repro.lift(i + 1).contains("maybeCompact")) "maybeCompact" else repro(i)
    }
  }
}

/** Spark work done during one traced evaluation. */
final case class SparkWork(
    jobs: Int,
    stages: Int,
    tasks: Int,
    siteJobs: Map[String, Int],
    siteJobSeconds: Map[String, Double],
    /** Sum of job durations (jobs can overlap, so this can exceed `busySeconds`). */
    jobSeconds: Double,
    /** Length of the union of job intervals. */
    busySeconds: Double,
    taskCpuSeconds: Double,
    shuffleWriteMb: Double,
    shuffleReadMb: Double,
    /** SQL executions whose plan builds `Dedup.fast`'s packed `ck` column. */
    fastDedupExecs: Int,
    /** SQL executions issued from `setDifference`: one per TPSD choice. */
    tpsdExecs: Int,
)

/** Counts Spark work by listening to the scheduler. A job is attributed
  * through its SQL execution: that execution's start event carries the
  * call site of the action, so AQE and broadcast jobs, which run on Spark
  * threads, still land on the engine method that caused them. Jobs outside
  * any SQL execution fall back to their stages' call sites.
  */
final class JobTracer extends SparkListener {
  private val execSites = mutable.HashMap.empty[Long, String]
  private val running = mutable.HashMap.empty[Int, (String, Long)]
  private val intervals = mutable.ArrayBuffer.empty[(Long, Long)]
  private val siteJobs = mutable.HashMap.empty[String, Int]
  private val siteNanos = mutable.HashMap.empty[String, Long]
  private var stages, tasks, fastDedup, tpsd = 0
  private var taskCpuNs, shuffleWrite, shuffleRead = 0L

  override def onOtherEvent(event: SparkListenerEvent): Unit = synchronized {
    event match {
      case s: SparkListenerSQLExecutionStart =>
        val site = Sites.of(s.details)
        execSites(s.executionId) = site
        if (s.physicalPlanDescription.contains(" AS ck#")) fastDedup += 1
        if (site == "setDifference") tpsd += 1
      case e: SparkListenerSQLExecutionEnd => execSites.remove(e.executionId)
      case _ =>
    }
  }

  override def onJobStart(j: SparkListenerJobStart): Unit = synchronized {
    val site = Option(j.properties)
      .flatMap(p => Option(p.getProperty(SQLExecution.EXECUTION_ID_KEY)))
      .flatMap(id => execSites.get(id.toLong))
      .getOrElse(Sites.of(j.stageInfos.map(_.details).mkString("\n")))
    running(j.jobId) = (site, j.time)
  }

  override def onJobEnd(j: SparkListenerJobEnd): Unit = synchronized {
    running.remove(j.jobId).foreach { case (site, start) =>
      siteJobs(site) = siteJobs.getOrElse(site, 0) + 1
      siteNanos(site) = siteNanos.getOrElse(site, 0L) + (j.time - start) * 1000000L
      intervals += ((start, j.time))
    }
  }

  override def onStageCompleted(s: SparkListenerStageCompleted): Unit = synchronized { stages += 1 }

  override def onTaskEnd(t: SparkListenerTaskEnd): Unit = synchronized {
    tasks += 1
    Option(t.taskMetrics).foreach { m =>
      taskCpuNs += m.executorCpuTime + m.executorDeserializeCpuTime
      shuffleWrite += m.shuffleWriteMetrics.bytesWritten
      shuffleRead += m.shuffleReadMetrics.totalBytesRead
    }
  }

  def reset(): Unit = synchronized {
    intervals.clear(); siteJobs.clear(); siteNanos.clear()
    stages = 0; tasks = 0; fastDedup = 0; tpsd = 0
    taskCpuNs = 0; shuffleWrite = 0; shuffleRead = 0
  }

  def snapshot(): SparkWork = synchronized {
    var busyMs, end = 0L
    for ((s, e) <- intervals.sortBy(_._1)) {
      busyMs += math.max(0L, e - math.max(s, end))
      end = math.max(end, e)
    }
    SparkWork(
      jobs = siteJobs.values.sum, stages = stages, tasks = tasks,
      siteJobs = Sites.all.map(s => s -> siteJobs.getOrElse(s, 0)).toMap,
      siteJobSeconds = Sites.all.map(s => s -> siteNanos.getOrElse(s, 0L) / 1e9).toMap,
      jobSeconds = siteNanos.values.sum / 1e9,
      busySeconds = busyMs / 1e3,
      taskCpuSeconds = taskCpuNs / 1e9,
      shuffleWriteMb = shuffleWrite / 1048576.0,
      shuffleReadMb = shuffleRead / 1048576.0,
      fastDedupExecs = fastDedup, tpsdExecs = tpsd)
  }
}

object JobTracer {
  /** Block until every posted scheduler event has reached the listeners. The
    * bus is internal to Spark, hence the reflection.
    */
  def drain(sc: SparkContext): Unit = {
    val bus = sc.getClass.getMethod("listenerBus").invoke(sc)
    bus.getClass.getMethod("waitUntilEmpty").invoke(bus)
    ()
  }
}
