package perfbench

import repro.datalog.Program
import repro.graphs.GraphData
import repro.graphs.GraphData.Edges
import repro.programs.Programs

/** One benchmark workload: a program, inputs generated from the seed, and
  * an independent reference for its primary IDB.
  */
final case class Workload(
    name: String,
    program: Program,
    /** IDB compared against the reference. */
    primary: String,
    /** EDB relations (all binary) generated from the benchmark seed. */
    generate: Long => Map[String, Edges],
    /** EDB relation handed to the standalone PBME calls. */
    arcs: String,
    reference: Map[String, Edges] => Digest,
    /** The execution shape the workload was chosen for, as (description, test). */
    shape: (String, SparkWork => Boolean),
)

/** The four workloads. Sizes are set so that one evaluation takes a few
  * seconds on 4 cores and a run fits its time budget; `quick` shrinks them
  * for the self-test.
  */
object Workloads {

  private def jobs(w: SparkWork, sites: String*): Int = sites.map(w.siteJobs).sum
  private val relational = Seq("loadEdbs", "evalIdb", "materialize", "aggStep")

  /** Long-diameter CFG: many iterations with tiny deltas, so per-iteration
    * job and planning overhead sets the time (the paper's §6.3 loss regime).
    */
  def csda(quick: Boolean): Workload = Workload("csda", Programs.csda, "null",
    seed => GraphData.csdaInput(segments = 1, segLen = if (quick) 3 else 6, branching = 2, seed).asMap,
    "arc", Reference.souffle(Programs.csda, "null"),
    "set iteration with tiny deltas: no FAST-DEDUP, no TPSD, no PBME" -> (w =>
      jobs(w, "evalIdb") > 0 && w.fastDedupExecs == 0 && w.tpsdExecs == 0 && jobs(w, "tryEvaluate") == 0))

  /** Andersen's analysis: non-linear recursion with several delta
    * subqueries per iteration over ever-wider unions of pieces. Even at
    * scale 1 driver-side planning takes ~14 s per evaluation on 4 cores,
    * more than a run's budget allows, so BENCHMARK.json leaves it out; it
    * runs by hand with `--workload aa`. R_δ stays below `smallDeltaRows`.
    */
  val aa: Workload = Workload("aa", Programs.andersen, "pointsTo",
    seed => GraphData.andersenInput(scale = 1, seed).asMap,
    "assign", Reference.souffle(Programs.andersen, "pointsTo"),
    "set iteration, R_δ below smallDeltaRows: no FAST-DEDUP, no TPSD" -> (w =>
      jobs(w, "evalIdb") > 0 && w.fastDedupExecs == 0 && w.tpsdExecs == 0))

  /** CC by recursive MIN on an RMAT graph: the aggregate driver, which
    * rewrites all of R every iteration. One evaluation takes ~5.5 s on 4
    * cores; BENCHMARK.json leaves it out so that each run of the listed
    * workloads holds enough evaluations for a steady median. It runs by hand
    * with `--workload cc` and in the self-test.
    */
  def cc(quick: Boolean): Workload = {
    val n = if (quick) 512 else 2048
    Workload("cc", Programs.cc, "cc3",
      seed => Map("arc" -> GraphData.rmat(n, 10 * n, seed)),
      "arc", edb => Reference.ccLabels(edb("arc")),
      "recursive aggregation through aggStep" -> (w => jobs(w, "aggStep") > 0))
  }

  /** TC on a dense G(n, p): answered by PBME with no relational iteration,
    * so result materialization carries the time.
    */
  def tc(quick: Boolean): Workload = Workload("tc", Programs.tc, "tc",
    seed => Map("arc" -> GraphData.erdosRenyi(if (quick) 100 else 800, 0.01, seed)),
    "arc", edb => Reference.closure(edb("arc")),
    "PBME answers; no relational job" -> (w =>
      jobs(w, "tryEvaluate") > 0 && jobs(w, relational: _*) == 0))

  /** The workloads the self-test covers; BENCHMARK.json lists csda and tc. */
  def all(quick: Boolean): Seq[Workload] = Seq(csda(quick), cc(quick), tc(quick))

  def byName(name: String): Option[Workload] = (all(quick = false) :+ aa).find(_.name == name)
}
