package perfbench

import java.lang.management.ManagementFactory
import org.apache.spark.sql.SparkSession
import repro.core.RecStepConf
import scala.jdk.CollectionConverters._

object Stats {
  def median(xs: Seq[Double]): Double = quartiles(xs)._2

  /** (q1, median, q3) by the "exclusive" method of Python's
    * `statistics.quantiles(xs, n=4)`, which is what runs are compared with.
    */
  def quartiles(xs: Seq[Double]): (Double, Double, Double) = {
    val d = xs.sorted.toIndexedSeq
    if (d.isEmpty) (Double.NaN, Double.NaN, Double.NaN)
    else if (d.size == 1) (d(0), d(0), d(0))
    else {
      def q(i: Int): Double = {
        val m = d.size + 1
        val j = math.min(math.max(i * m / 4, 1), d.size - 1)
        val delta = i * m - j * 4
        (d(j - 1) * (4 - delta) + d(j) * delta) / 4
      }
      (q(1), q(2), q(3))
    }
  }
}

/** Minimal JSON rendering for the report and result lines. */
object Json {
  def apply(v: Any): String = v match {
    case null                      => "null"
    case s: String                 => "\"" + s.flatMap {
      case '"' => "\\\""; case '\\' => "\\\\"; case '\n' => "\\n"
      case c if c < ' ' => f"\\u${c.toInt}%04x"; case c => c.toString
    } + "\""
    case b: Boolean                => b.toString
    case d: Double                 => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n: Number                 => n.toString
    case m: Map[_, _]              => m.map { case (k, x) => apply(k.toString) + ": " + apply(x) }.mkString("{", ", ", "}")
    case kv: Seq[_] if kv.forall(_.isInstanceOf[(_, _)]) && kv.nonEmpty =>
      kv.map { case (k, x) => apply(k.toString) + ": " + apply(x) }.mkString("{", ", ", "}")
    case xs: Seq[_]                => xs.map(apply).mkString("[", ", ", "]")
    case other                     => apply(other.toString)
  }
}

/** Metric names and units; BENCHMARK.json declares the same lists. */
object Metrics {
  val endToEnd: Seq[(String, String)] = Seq(
    "eval_s" -> "s", "cpu_s" -> "s", "peak_heap_mb" -> "MB", "setup_s" -> "s", "ok_frac" -> "frac")

  val perLayer: Seq[(String, String)] = Seq(
    "graphs.gen_s" -> "s",
    "datalog.analyze_ms" -> "ms",
    "core.evaluate_s" -> "s",
    "core.result_count_s" -> "s",
    "pbme.try_evaluate_s" -> "s",
    "pbme.kernel_s" -> "s",
    "spark.jobs" -> "count",
    "spark.stages" -> "count",
    "spark.tasks" -> "count") ++
    Sites.all.map(s => s"spark.jobs.$s" -> "count") ++ Seq(
    "spark.job_s" -> "s",
    "spark.job_busy_s" -> "s",
    "spark.driver_gap_s" -> "s",
    "spark.task_cpu_s" -> "s",
    "spark.driver_cpu_s" -> "s",
    "spark.shuffle_write_mb" -> "MB",
    "spark.shuffle_read_mb" -> "MB",
    "jvm.gc_s" -> "s",
    "records.edb_rows" -> "count",
    "records.idb_rows" -> "count",
    "records.primary_rows" -> "count",
    "shape.fast_dedup_execs" -> "count",
    "shape.tpsd_execs" -> "count",
    "trace.eval_s" -> "s",
    "trace.cpu_s" -> "s")
}

/** Turns a run's samples into metrics and prints them: a readable table and
  * a full report line (quartiles, sample counts, environment) to standard
  * error and output, then the result object as the last line of output.
  */
final class Report(
    o: Opts, w: Workload, nproc: Int, spark: SparkSession, reference: Digest, edbRows: Map[String, Int],
    setupS: Seq[Double], samples: Seq[Sample], layers: Map[String, Double]) {

  private def dist(xs: Seq[Double]): Map[String, Any] = {
    val (q1, med, q3) = Stats.quartiles(xs)
    Map("median" -> med, "q1" -> q1, "q3" -> q3, "n" -> xs.size)
  }

  private val traced = samples.flatMap(s => s.work.map(s -> _))

  /** Traced values of one or more evaluations, keyed by metric name. */
  private def tracedMetrics(evals: Seq[(Sample, SparkWork)]): Map[String, Seq[Double]] = {
    def each(f: (Sample, SparkWork) => Double): Seq[Double] = evals.map(f.tupled)
    Sites.all.map(s => s"spark.jobs.$s" -> each((_, x) => x.siteJobs(s).toDouble)).toMap ++
    Sites.all.map(s => s"spark.job_s.$s" -> each((_, x) => x.siteJobSeconds(s))) ++ Map(
      "core.evaluate_s" -> each((s, _) => s.evaluateS),
      "core.result_count_s" -> each((s, _) => s.countS),
      "spark.jobs" -> each((_, x) => x.jobs.toDouble),
      "spark.stages" -> each((_, x) => x.stages.toDouble),
      "spark.tasks" -> each((_, x) => x.tasks.toDouble),
      "spark.job_s" -> each((_, x) => x.jobSeconds),
      "spark.job_busy_s" -> each((_, x) => x.busySeconds),
      "spark.driver_gap_s" -> each((s, x) => s.wallS - x.busySeconds),
      "spark.task_cpu_s" -> each((_, x) => x.taskCpuSeconds),
      "spark.driver_cpu_s" -> each((s, x) => s.cpuS - x.taskCpuSeconds),
      "spark.shuffle_write_mb" -> each((_, x) => x.shuffleWriteMb),
      "spark.shuffle_read_mb" -> each((_, x) => x.shuffleReadMb),
      "jvm.gc_s" -> each((s, _) => s.gcS),
      "shape.fast_dedup_execs" -> each((_, x) => x.fastDedupExecs.toDouble),
      "shape.tpsd_execs" -> each((_, x) => x.tpsdExecs.toDouble),
      "trace.eval_s" -> each((s, _) => s.wallS),
      "trace.cpu_s" -> each((s, _) => s.cpuS))
  }

  /** Metrics measured once per run rather than per evaluation. */
  private def perRun(attempted: Int, failed: Int): Map[String, Seq[Double]] =
    if (!o.trace) Map(
      "setup_s" -> setupS,
      "ok_frac" -> Seq((attempted - failed).toDouble / attempted))
    else {
      val rows = samples.find(_.error.isEmpty).map(_.rows).getOrElse(Map.empty)
      layers.map { case (k, v) => k -> Seq(v) } ++ Map(
        "records.edb_rows" -> Seq(edbRows.values.sum.toDouble),
        "records.idb_rows" -> Seq(rows.values.sum.toDouble),
        "records.primary_rows" -> Seq(rows.getOrElse(w.primary, 0L).toDouble))
    }

  /** Every metric of the run as its distribution over evaluations. */
  private def distributions(attempted: Int, failed: Int): Map[String, Seq[Double]] =
    perRun(attempted, failed) ++ (
      if (!o.trace) Map(
        "eval_s" -> samples.map(_.wallS),
        "cpu_s" -> samples.map(_.cpuS),
        "peak_heap_mb" -> samples.map(_.peakHeapMb))
      else tracedMetrics(traced))

  /** The reported value of each metric: the median of its distribution,
    * except that traced metrics all come from one evaluation, the one with
    * the median wall time, so that they add up (per-site jobs to
    * `spark.jobs`, evaluate plus count to `trace.eval_s`).
    */
  private def values(attempted: Int, failed: Int): Map[String, Double] = {
    val medianEval = traced.sortBy(_._1.wallS).lift((traced.size - 1) / 2).toSeq
    val dists = if (o.trace) perRun(attempted, failed) ++ tracedMetrics(medianEval) else distributions(attempted, failed)
    dists.collect { case (k, xs) if xs.nonEmpty => k -> Stats.median(xs) }
  }

  private def environment: Map[String, Any] = {
    val jvmArgs = ManagementFactory.getRuntimeMXBean.getInputArguments.asScala
    Map(
      "nproc" -> nproc,
      "xmx" -> jvmArgs.find(_.startsWith("-Xmx")).getOrElse("default"),
      "jvm_flags" -> jvmArgs.filter(_.startsWith("-X")).toSeq,
      "max_heap_mb" -> Runtime.getRuntime.maxMemory / 1048576,
      "spark_version" -> spark.version,
      "spark.sql.shuffle.partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
      "spark.sql.adaptive.enabled" -> spark.conf.get("spark.sql.adaptive.enabled"),
      "java" -> System.getProperty("java.version"),
      "git_rev" -> sys.props.getOrElse("perfbench.git_rev", "unknown"),
      "source_sha256" -> sys.props.getOrElse("perfbench.source_sha256", "unknown"),
      "engine_conf" -> RecStepConf.default.toString)
  }

  def print(attempted: Int, failed: Int, correct: Boolean, errors: Seq[String]): Unit = {
    val dists = distributions(attempted, failed)
    val declared = if (o.trace) Metrics.perLayer else Metrics.endToEnd
    val shapeHolds = traced.nonEmpty && traced.forall { case (_, x) => w.shape._2(x) }

    val err = Console.err
    err.println(f"[perfbench] ${w.name} seed=${o.seed} trace=${if (o.trace) 1 else 0}: " +
      s"$attempted evaluations, $failed failed (fail_frac ${failed.toDouble / attempted})")
    for ((name, xs) <- dists.toSeq.sortBy(_._1)) {
      val (q1, med, q3) = Stats.quartiles(xs)
      err.println(f"  $name%-28s median $med%12.4f  q1 $q1%12.4f  q3 $q3%12.4f  n ${xs.size}")
    }
    if (o.trace) err.println(s"  shape '${w.shape._1}': ${if (shapeHolds) "holds" else "DOES NOT HOLD"}")

    val report = Map(
      "workload" -> w.name, "seed" -> o.seed, "seconds" -> o.seconds, "trace" -> o.trace,
      "environment" -> environment,
      "reference" -> Map("relation" -> w.primary, "rows" -> reference.rows, "digest" -> reference.toString),
      "fail_frac" -> failed.toDouble / attempted,
      "errors" -> errors.distinct.take(5),
      "fixpoint_rows" -> samples.find(_.error.isEmpty).map(_.rows).getOrElse(Map.empty),
      "edb_rows" -> edbRows,
      "shape" -> Map("expected" -> w.shape._1, "holds" -> (if (o.trace) shapeHolds else null)),
      "metrics" -> dists.map { case (k, xs) => k -> dist(xs) })
    println("# report " + Json(report))

    val measured = values(attempted, failed)
    val metrics = declared.flatMap { case (name, unit) =>
      measured.get(name).map(v => name -> Map("value" -> v, "unit" -> unit))
    }
    println(Json(Seq(
      "correct" -> (correct && metrics.size == declared.size),
      "attempted" -> attempted, "failed" -> failed, "metrics" -> metrics)))
  }
}
