package repro.bench

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.baselines.bdd.BddEngine
import repro.baselines.bigdatalog.BigDatalogLite
import repro.baselines.graspan.GraspanLite
import repro.baselines.souffle.SouffleLite
import repro.bench.Harness._
import repro.bench.Workloads._
import repro.graphs.GraphData
import repro.programs.Programs

/** Reproduction of the paper's tables. Each `tableN` method runs the
  * experiment, prints its markdown rendering and returns the [[Report]],
  * with the paper's own numbers inlined for diffing — see EXPERIMENTS.md.
  * The `tableNReport` methods build a report from results alone.
  */
object Tables {

  val cores: Int = Runtime.getRuntime.availableProcessors()

  /** One discarded Spark-heavy run so JVM/JIT/shuffle warm-up is not billed
    * to whichever engine happens to go first (the paper likewise discards
    * the first of four runs).
    */
  def warmJvm()(implicit spark: SparkSession): Unit = {
    val tiny = tcOn("warmup", "warmup", 120, 0.02)
    Harness.run(new RecStepEngine(RecStepConf()), tiny, timeoutSec = 120)
    Harness.run(new BigDatalogLite(), tiny, timeoutSec = 120)
    ()
  }

  def recstep: DatalogEngine = new RecStepEngine(RecStepConf.default)

  /** The engines Tables 1 and 4 compare, under the paper's column names. */
  val comparedEngines: Seq[(String, () => DatalogEngine)] = Seq(
    "Graspan" -> (() => new GraspanLite()),
    "BigDatalog" -> (() => new BigDatalogLite()),
    "Souffle" -> (() => new SouffleLite()),
    "RecStep" -> (() => recstep),
  )

  /** Runs one cell and files it under the report's column and row names. */
  private def cell(column: String, row: String, engine: DatalogEngine, w: Workload, timeoutSec: Int)(
      implicit spark: SparkSession): Result = {
    val r = Result(column, row, Harness.run(engine, w, timeoutSec).status)
    println(s"$row / $column: ${Report.status(r.status)}")
    r
  }

  private def printed(r: Report): Report = { println(r.text); r }

  // =========================================================== Table 1 ===

  /** Paper Table 1's language rows: capability -> engine -> supported. */
  val paperTable1: Map[String, Map[String, Boolean]] = Map(
    "Mutual Recursion" -> Map("Graspan" -> true, "BDDBDDB" -> true, "BigDatalog" -> false, "Souffle" -> true, "RecStep" -> true),
    "Recursive Aggregation" -> Map("Graspan" -> false, "BDDBDDB" -> false, "BigDatalog" -> true, "Souffle" -> false, "RecStep" -> true),
    "Non-Recursive Aggregation" -> Map("Graspan" -> false, "BDDBDDB" -> false, "BigDatalog" -> true, "Souffle" -> true, "RecStep" -> true),
  )

  /** Table 1 probe cells whose observed capability (a fixpoint is yes, a
    * rejection no, any other outcome neither) differs from the paper's.
    */
  def capabilityMismatches(r: Report): Seq[Result] = r.results.filter { c =>
    paperTable1.get(c.workload).flatMap(_.get(c.engine)).exists(p => c.status match {
      case _: Ok => !p; case Unsupported => p; case _ => true })
  }

  /** Table 1: system capability/behaviour matrix. The three language rows
    * are *probed* (tiny programs fed to the live engines); CPU utilization
    * and memory are *measured* on a small TC run; the remaining qualitative
    * rows quote the paper (there is nothing to measure for scale-out on one
    * node).
    */
  def table1(quick: Boolean = false)(implicit spark: SparkSession): Report = {
    warmJvm()
    val all = comparedEngines :+ ("BDDBDDB" -> (() => new BddEngine()))
    val probes = Seq(
      "Mutual Recursion" -> cspaOn("probe", nFuncs = 2, clusterSize = 4).copy(name = "CSPA(probe)"),
      "Recursive Aggregation" -> ccOn("probe", "probe", 64),
      "Non-Recursive Aggregation" -> Workload("GTC(probe)", "probe", Programs.gtc, "gtc",
        s => Map("arc" -> GraphData.toDF(s, GraphData.erdosRenyi(40, 0.04, 1)))),
    )
    val probeResults = for ((label, w) <- probes; (n, mk) <- all) yield cell(n, label, mk(), w, 120)
    val meas = if (quick) tcOn("G150", "G20K", 150, 0.02) else tcOn("G400", "G20K", 400, 0.01)
    val measured = all.map { case (n, mk) => cell(n, meas.name, mk(), meas, if (quick) 60 else 180) }
    printed(table1Report(probeResults, measured))
  }

  def table1Report(probes: Seq[Result], measured: Seq[Result]): Report = {
    val yesNo: Status => String = { case _: Ok => "yes"; case Unsupported => "no"; case st => Report.status(st) }
    val paper = (row: String, col: String) =>
      paperTable1.get(row).flatMap(_.get(col)).map(if (_) "yes" else "no")
    val perf = (st: Status) =>
      Report.status(st, o => f"${o.seconds}%.2f s, ${o.utilization(cores) * 100}%.0f%% CPU, ${o.peakHeapMb} MB")
    Report(probes ++ measured,
      Report.markdown("Table 1: capability matrix (probed on live engines; paper values in brackets)",
        probes, paper, yesNo) +
      Report.markdown(s"Table 1: runtime, CPU utilization ($cores cores) and peak heap", measured, show = perf) +
      "\nPaper (qualitative): Scale-Up all yes except BDDBDDB; Scale-Out only BigDatalog;\n" +
      "Memory: Graspan/BDDBDDB/RecStep low, Souffle medium, BigDatalog high;\n" +
      "CPU Utilization: RecStep/BigDatalog high, Graspan/Souffle medium, BDDBDDB poor;\n" +
      "Hyperparameter tuning: needed by Graspan (lightweight), BDDBDDB (complex), BigDatalog (moderate); not by Souffle/RecStep.\n")
  }

  // =========================================================== Table 3 ===

  /** Table 3: the full benchmark matrix — every (program, dataset-family)
    * cell evaluated to fixpoint by RecStep, with runtime and fixpoint size.
    */
  def table3(quick: Boolean = false)(implicit spark: SparkSession): Report = {
    warmJvm()
    val ws: Seq[Workload] =
      if (quick) quickTable4
      else {
        tcSweep ++ sgSweep ++
          Seq(reachOn _, ccOn _, ssspOn _).flatMap(on => rmatSweep.map(n =>
            on(s"RMAT-${n / 1024}K", s"RMAT-${n / 1024}M", n)) :+ on("orkut-sub", "orkut", orkutN)) ++
          (1 to 7).map(aaOn) ++
          Seq(csdaHttpd, csdaPostgres, csdaLinux, cspaHttpd, cspaPostgres, cspaLinux)
      }
    printed(table3Report(ws, ws.map(w => cell("RecStep", w.name, recstep, w, if (quick) 120 else 600))))
  }

  /** Cells show runtime and fixpoint size; the paper value is the stood-in dataset. */
  def table3Report(ws: Seq[Workload], results: Seq[Result]): Report =
    Report(results, Report.markdown("Table 3: RecStep across the full program x dataset matrix", results,
      (row, _) => ws.find(_.name == row).map(_.paperDataset),
      Report.status(_, o => f"${o.seconds}%.2f s, ${o.resultSize} tuples")))

  // =========================================================== Table 4 ===

  /** Paper Table 4 (CPU efficiency, ce = 1/(t·n)), only the cells the paper
    * ran; None is a cell the paper ran but printed as a dash.
    */
  val paperTable4: Map[(String, String), Option[Double]] = Map(
    ("TC", "BigDatalog") -> Some(2.75e-4), ("TC", "Souffle") -> Some(2.92e-4), ("TC", "RecStep") -> Some(1.12e-3),
    ("SG", "BigDatalog") -> Some(7.18e-5), ("SG", "Souffle") -> Some(5.41e-4), ("SG", "RecStep") -> Some(2.45e-3),
    ("REACH", "BigDatalog") -> Some(1.92e-4), ("REACH", "Souffle") -> Some(3.52e-4), ("REACH", "RecStep") -> Some(1.32e-3),
    ("CC", "BigDatalog") -> Some(2.17e-4), ("CC", "Souffle") -> None, ("CC", "RecStep") -> Some(5.81e-4),
    ("SSSP", "BigDatalog") -> Some(1.81e-4), ("SSSP", "Souffle") -> None, ("SSSP", "RecStep") -> Some(1.00e-3),
    ("AA", "BigDatalog") -> Some(2.20e-4), ("AA", "Souffle") -> Some(5.65e-5), ("AA", "RecStep") -> Some(7.65e-4),
    ("CSDA", "Graspan") -> Some(2.22e-6), ("CSDA", "BigDatalog") -> Some(1.29e-4), ("CSDA", "Souffle") -> Some(2.05e-4), ("CSDA", "RecStep") -> Some(5.81e-5),
    ("CSPA", "Graspan") -> Some(4.56e-5), ("CSPA", "BigDatalog") -> None, ("CSPA", "Souffle") -> Some(2.03e-4), ("CSPA", "RecStep") -> Some(4.10e-4),
  )

  private def table4Key(workload: String): String = workload.takeWhile(_ != '(')

  /** Table 4: CPU efficiency ce = 1/(t·n) of each system on the eight
    * representative workloads. Distributed-BigDatalog (a 15-node cluster)
    * cannot be reproduced on one machine and is omitted (DESIGN.md §3).
    */
  def table4(quick: Boolean = false)(implicit spark: SparkSession): Report = {
    warmJvm()
    val ws = if (quick) quickTable4 else Workloads.table4
    val results = for {
      w <- ws
      (name, mk) <- comparedEngines if paperTable4.contains((table4Key(w.name), name))
    } yield cell(name, w.name, mk(), w, if (quick) 90 else 420)
    printed(table4Report(results))
  }

  def table4Report(results: Seq[Result]): Report =
    Report(results, Report.markdown(s"Table 4: CPU efficiency ce = 1/(t*cores), cores=$cores", results,
      (row, col) => paperTable4.get((table4Key(row), col)).map(_.fold("-")(v => f"$v%.2e")),
      Report.status(_, o => f"${1.0 / (o.seconds * cores)}%.2e (${o.seconds}%.1f s)")))

  // ================================================= Figure 2 (ablation) ===

  /** Figure 2's arms and the paper's runtime as % of RecStep-NO-OP. PBME is
    * irrelevant to CSPA, so the arms start from the relational path.
    */
  val ablationArms: Seq[(String, RecStepConf, String)] = Seq(
    ("RecStep (all opts)", RecStepConf(), "24%"),
    ("UIE off", RecStepConf(uie = false), "n/a"),
    ("OOF-NA (stale stats)", RecStepConf(oof = OofMode.NoAnalyze), "63%"),
    ("OOF-FA (full stats)", RecStepConf(oof = OofMode.FullAnalyze), "41%"),
    ("DSD off (OPSD only)", RecStepConf(dsd = DsdMode.Opsd), "n/a"),
    ("EOST off (disk commits)", RecStepConf(eost = false), "n/a"),
    ("FAST-DEDUP off", RecStepConf(fastDedup = false), "n/a"),
    ("RecStep-NO-OP", RecStepConf.noOp, "100%"),
  )

  /** Figure-2-style ablation: CSPA on the httpd-scale input with each
    * optimization turned off, runtimes as % of RecStep-NO-OP.
    */
  def ablation(quick: Boolean = false)(implicit spark: SparkSession): Report = {
    warmJvm()
    val w = if (quick) cspaOn("quick", 6, 8).copy(name = "CSPA(quick)") else cspaHttpd
    val results = ablationArms.map { case (arm, conf, _) =>
      cell("RecStep", arm, new RecStepEngine(conf), w, if (quick) 120 else 600)
    }
    printed(ablationReport(w.name, results))
  }

  /** Rows are [[ablationArms]]; cells show runtime and its share of RecStep-NO-OP's. */
  def ablationReport(workload: String, results: Seq[Result]): Report = {
    val noOp = results.collectFirst { case Result(_, "RecStep-NO-OP", o: Ok) => o.seconds }
    Report(results, Report.markdown(s"Figure 2 ablation on $workload: runtime as % of RecStep-NO-OP", results,
      (row, _) => ablationArms.collectFirst { case (`row`, _, paper) => paper },
      Report.status(_, o => f"${o.seconds}%.2f s" + noOp.fold("")(b => f" (${o.seconds / b * 100}%.0f%%)"))))
  }
}
