package perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import java.nio.file.Paths
import java.util.concurrent.{Callable, ExecutionException, Executors, TimeUnit, TimeoutException}
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{RecStepConf, RecStepEngine}
import repro.datalog.Analyzer
import repro.graphs.GraphData
import repro.graphs.GraphData.Edges
import repro.pbme.{Pbme, PbmeMatcher}
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

/** Benchmark entry point.
  *
  *   perfbench.Main --workload <csda|cc|tc|aa> --seed <n> --seconds <s> --trace <0|1>
  *   perfbench.Main --self-test
  *
  * A run sets up (Spark session, inputs from the seed, EDB DataFrames)
  * several times, computes the reference outside any timing, warms up, then
  * evaluates `RecStepEngine(RecStepConf.default)` back to back for the given
  * seconds. Every evaluation's primary IDB is checked against the reference.
  * The last line of standard output is the result object.
  */
object Main {
  def main(args: Array[String]): Unit = {
    val started = System.nanoTime()
    val code =
      try {
        if (args.sameElements(Array("--self-test"))) SelfTest.run()
        else Opts.parse(args) match {
          case Right(o)  => new Run(o, started).run()
          case Left(msg) => Console.err.println(msg); 2
        }
      } catch { case e: Throwable => e.printStackTrace(); 1 }
    System.exit(code)
  }
}

final case class Opts(workload: Workload, seed: Long, seconds: Int, trace: Boolean)

object Opts {
  val usage = "usage: --workload <csda|cc|tc|aa> --seed <n> --seconds <s> --trace <0|1> | --self-test"

  def parse(args: Array[String]): Either[String, Opts] = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    if (args.length % 2 != 0 || kv.keySet != Set("workload", "seed", "seconds", "trace")) Left(usage)
    else for {
      w <- Workloads.byName(kv("workload")).toRight(s"unknown workload: ${kv("workload")}")
      seed <- kv("seed").toLongOption.toRight(usage)
      secs <- kv("seconds").toIntOption.filter(_ > 0).toRight(usage)
      trace <- kv("trace") match { case "0" => Right(false); case "1" => Right(true); case _ => Left(usage) }
    } yield Opts(w, seed, secs, trace)
  }
}

object Session {
  /** One local-mode session on every core, configured as the repo's jobs
    * configure theirs.
    */
  def start(nproc: Int): SparkSession = {
    val s = SparkSession.builder
      .master(s"local[$nproc]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }
}

/** Timings of one evaluation. */
final case class Sample(
    wallS: Double,
    cpuS: Double,
    peakHeapMb: Double,
    evaluateS: Double,
    countS: Double,
    gcS: Double,
    rows: Map[String, Long],
    error: Option[String],
    work: Option[SparkWork],
)

final class Run(o: Opts, started: Long) {
  private val SetupReps = 8
  /** Warm-up runs at least two evaluations and this many seconds: the
    * first evaluation loads and compiles the planner, the second still
    * finishes compiling it.
    */
  private val WarmupSeconds = 15.0
  /** Seconds after JVM start by which the run must be done. */
  private val Deadline = 150.0

  private val w = o.workload
  private val nproc = Runtime.getRuntime.availableProcessors()
  private val conf = RecStepConf.default
  private val engine = new RecStepEngine(conf)
  private val os = ManagementFactory.getOperatingSystemMXBean.asInstanceOf[com.sun.management.OperatingSystemMXBean]
  private val heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala.filter(_.getType == MemoryType.HEAP).toSeq
  private val gcBeans = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq

  private def elapsed: Double = (System.nanoTime() - started) / 1e9
  private def cpuNow: Double = os.getProcessCpuTime / 1e9
  private def gcNow: Double = gcBeans.map(_.getCollectionTime).sum / 1e3
  private def peakHeapMb: Double = heapPools.map(_.getPeakUsage.getUsed).sum / 1048576.0
  private def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  private var spark: SparkSession = _
  private var edges: Map[String, Edges] = Map.empty
  private var edb: Map[String, DataFrame] = Map.empty
  private var reference: Digest = _

  private val pool = Executors.newSingleThreadExecutor { r =>
    val t = new Thread(r, "perfbench-eval"); t.setDaemon(true); t
  }
  /** Set once an evaluation overran: its threads may still run (PBME workers
    * ignore cancellation), so nothing further is timed in this process.
    */
  private var stuck = false

  /** Run `body` on the evaluation thread under a Spark job group, cancelling
    * the group if it outlives the run's deadline.
    */
  private def bounded[A](body: => A): Either[String, A] = {
    val limit = Deadline - elapsed
    if (stuck || limit <= 1) return Left("no time left before the run's deadline")
    val sc = spark.sparkContext
    val fut = pool.submit(new Callable[A] {
      def call(): A = {
        sc.setJobGroup("perfbench", "perfbench", interruptOnCancel = true)
        try body finally sc.clearJobGroup()
      }
    })
    try Right(fut.get((limit * 1000).toLong, TimeUnit.MILLISECONDS))
    catch {
      case _: TimeoutException =>
        sc.cancelJobGroup("perfbench"); fut.cancel(true); stuck = true
        Left(f"timed out after $limit%.0f s")
      case e: ExecutionException => Left(String.valueOf(e.getCause))
    }
  }

  def run(): Int = {
    val setupS, genS = ArrayBuffer.empty[Double]
    // Half the set-ups run before the evaluations and half after, so that a
    // burst of contention on the host does not hit all of them.
    def setUp(): Unit = {
      if (spark != null) spark.stop()
      val t0 = System.nanoTime()
      spark = Session.start(nproc)
      val g0 = System.nanoTime()
      edges = w.generate(o.seed)
      genS += secondsSince(g0)
      edb = edges.map { case (p, es) => p -> GraphData.toDF(spark, es) }
      setupS += secondsSince(t0)
      Console.err.println(f"[perfbench +$elapsed%.1fs] set-up ${setupS.last}%.3f s")
    }
    for (_ <- 0 until SetupReps / 2) setUp()
    val cacheDir = Paths.get(sys.props.getOrElse("perfbench.cache", ".bench_build/refcache"))
    reference = new Reference.Cache(cacheDir)(w.name, edges)(w.reference(edges))
    Console.err.println(f"[perfbench +$elapsed%.1fs] ${w.name} seed=${o.seed}: setup ${Stats.median(setupS.toSeq)}%.2f s, " +
      s"reference ${w.primary}: $reference")

    var attempted, failed = 0
    val errors = ArrayBuffer.empty[String]
    var mutationCaught = false
    def attempt(tracer: Option[JobTracer], checkMutation: Boolean): Sample = {
      attempted += 1
      val t0 = System.nanoTime(); val cpu0 = cpuNow
      val s = bounded(evaluateOnce(tracer, checkMutation, caught => mutationCaught = caught)) match {
        case Right(s) => s
        case Left(err) =>
          Sample(secondsSince(t0), cpuNow - cpu0, peakHeapMb, 0, 0, 0, Map.empty, Some(err), None)
      }
      Console.err.println(f"[perfbench +$elapsed%.1fs] evaluation $attempted: ${s.wallS}%.3f s wall, ${s.cpuS}%.3f s cpu, " +
        f"${s.peakHeapMb}%.0f MB peak heap")
      s.error.foreach { e => failed += 1; errors += e; Console.err.println(s"[perfbench] evaluation failed: $e") }
      s
    }

    val warmup = System.nanoTime()
    attempt(None, checkMutation = true)
    var warmed = 1
    while (!stuck && (warmed < 2 || secondsSince(warmup) < WarmupSeconds)) {
      attempt(None, checkMutation = false); warmed += 1
    }

    val tracer = if (o.trace) Some(new JobTracer) else None
    tracer.foreach(spark.sparkContext.addSparkListener)
    val samples = ArrayBuffer.empty[Sample]
    val window = System.nanoTime()
    while (!stuck && secondsSince(window) < o.seconds &&
           elapsed + 2 * samples.map(_.wallS).maxOption.getOrElse(0.0) < Deadline)
      samples += attempt(tracer, checkMutation = false)

    val layers = if (o.trace && !stuck) standaloneLayers(genS.toSeq) else Map.empty[String, Double]
    tracer.foreach(spark.sparkContext.removeSparkListener)
    if (!stuck) for (_ <- 0 until SetupReps / 2) setUp()

    val report = new Report(o, w, nproc, spark, reference, edges.map { case (p, es) => p -> es.size },
      setupS.toSeq, samples.toSeq, layers)
    val correct = failed == 0 && mutationCaught
    if (!mutationCaught) Console.err.println("[perfbench] a fixpoint missing one tuple was not told apart from the reference")
    report.print(attempted, failed, correct, errors.toSeq)
    if (!stuck) spark.stop()
    0
  }

  /** One evaluation: `eval_s` runs from calling `evaluate` until every
    * returned IDB is counted. The output check runs after the clock stops.
    */
  private def evaluateOnce(tracer: Option[JobTracer], checkMutation: Boolean, mutation: Boolean => Unit): Sample = {
    System.gc()
    heapPools.foreach(_.resetPeakUsage())
    tracer.foreach { t => JobTracer.drain(spark.sparkContext); t.reset() }
    val gc0 = gcNow; val cpu0 = cpuNow
    val t0 = System.nanoTime()
    val out = engine.evaluate(w.program, edb)(spark)
    val t1 = System.nanoTime()
    val rows = out.map { case (p, df) => p -> df.count() }
    val t2 = System.nanoTime()
    val cpu = cpuNow - cpu0
    val gc = gcNow - gc0
    val peak = peakHeapMb
    val work = tracer.map { t => JobTracer.drain(spark.sparkContext); t.snapshot() }

    val got = out.get(w.primary).map(Digest.of)
    if (checkMutation)
      mutation(out.get(w.primary).flatMap(Mutations.withoutOne).exists(Digest.of(_) != reference))
    val error =
      if (got.contains(reference)) None
      else Some(s"${w.primary}: got ${got.getOrElse("no relation")}, reference $reference")
    Sample((t2 - t0) / 1e9, cpu, peak, (t1 - t0) / 1e9, (t2 - t1) / 1e9, gc, rows, error, work)
  }

  /** Standalone calls into the layers under the engine, timed after the
    * measured window. `pbme.try_evaluate_s` is the engine's PBME entry on
    * this workload: the shape match, then `Pbme.tryEvaluate` if it matches.
    * `pbme.kernel_s` runs the TC kernel on the workload's arcs whenever their
    * vertices fit the PBME bound.
    */
  private def standaloneLayers(genS: Seq[Double]): Map[String, Double] = {
    def timed(f: => Any): Double = {
      val times = ArrayBuffer.empty[Double]
      while (times.size < 3 && (times.isEmpty || times.sum < 2.0)) {
        val t0 = System.nanoTime(); f; times += secondsSince(t0)
      }
      Stats.median(times.toSeq)
    }
    val arcs = edges(w.arcs)
    val n = arcs.iterator.map(e => math.max(e._1, e._2)).maxOption.getOrElse(0L)
    val kernelFits = n <= conf.pbmeMaxVertices && arcs.forall(e => e._1 > 0 && e._2 > 0)
    bounded {
      Map(
        "graphs.gen_s" -> Stats.median(genS),
        "datalog.analyze_ms" -> 1000 * Stats.median((1 to 21).map { _ =>
          val t0 = System.nanoTime(); Analyzer.analyze(w.program); secondsSince(t0)
        }),
        "pbme.try_evaluate_s" -> timed(PbmeMatcher.matchProgram(Analyzer.analyze(w.program))
          .flatMap(shape => Pbme.tryEvaluate(shape, edb, conf.pbmeMaxVertices)(spark))),
        "pbme.kernel_s" -> (if (kernelFits) timed(Pbme.tc(arcs, n.toInt, nproc)) else 0.0))
    } match {
      case Right(m) => m
      case Left(err) => Console.err.println(s"[perfbench] standalone layer calls failed: $err"); Map.empty
    }
  }
}
