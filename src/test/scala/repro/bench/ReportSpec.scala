package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.bench.Harness._
import repro.bench.Workloads.Workload
import repro.programs.Programs

/** The report layer on synthetic results: rendering of every status, and the
  * typed predicates the bench suites assert, with no engine run.
  */
class ReportSpec extends AnyFunSuite {

  private val failures: Seq[Status] = Seq(Crashed("boom"), Oom("heap"), TimedOut(60), NonConverged(50))

  test("every status renders in the markdown table") {
    val statuses = Seq(Ok(1.5, 10), Unsupported, TimedOut(60), Oom("heap"), Crashed("boom"), NonConverged(50))
    assert(statuses.map(Report.status(_)) ==
      Seq("1.50 s", "--", ">60s", "OOM", "ERROR", "no fixpoint after 50 iterations"))
    val results = statuses.zipWithIndex.map { case (st, i) => Result(if (i % 2 == 0) "A" else "B", s"W${i / 2}", st) } :+
      Result("C", "W0", Ok(2, 1))
    val text = Report.markdown("demo", results, (row, col) => if (row == "W1" && col == "C") Some("7") else None)
    assert(text.linesIterator.toSeq.filter(_.startsWith("|")) == Seq(
      "| | A | B | C |",
      "|---|---|---|---|",
      "| W0 | 1.50 s | -- | 2.00 s |",
      "| W1 | >60s | OOM | [7] |",
      "| W2 | ERROR | no fixpoint after 50 iterations | - |"))
    assert(text.contains("### demo"))
  }

  private def probes(flip: Option[(String, String, Status)] = None): Seq[Result] =
    for ((cap, paper) <- Tables.paperTable1.toSeq; (engine, yes) <- paper.toSeq) yield {
      val st = if (yes) Ok(0.1, 1) else Unsupported
      Result(engine, cap, flip.collect { case (`engine`, `cap`, s) => s }.getOrElse(st))
    }

  test("Table 1: a probe that differs from the paper, or does not answer, is a mismatch") {
    val measured = Seq(Result("RecStep", "TC(G150)", Ok(2.0, 100, cpuSeconds = 4.0, peakHeapMb = 300)),
                       Result("Souffle", "TC(G150)", Crashed("boom")))
    val agreeing = Tables.table1Report(probes(), measured)
    assert(Tables.capabilityMismatches(agreeing).isEmpty)
    assert(agreeing.text.contains("| Mutual Recursion |") && agreeing.text.contains("no [no]"))
    assert(agreeing.text.contains("2.00 s, ") && agreeing.text.contains("300 MB"))
    val wrong = Tables.table1Report(probes(Some(("BigDatalog", "Mutual Recursion", Ok(0.1, 1)))), Nil)
    assert(Tables.capabilityMismatches(wrong).map(r => (r.engine, r.workload)) ==
      Seq(("BigDatalog", "Mutual Recursion")))
    assert(wrong.text.contains("yes [no]"))
    for (st <- failures)
      assert(Tables.capabilityMismatches(
        Tables.table1Report(probes(Some(("RecStep", "Recursive Aggregation", st))), Nil)).size == 1, st)
  }

  test("Table 3: every outcome but a fixpoint or a rejection is incomplete") {
    val ws = Seq(Workload("TC(G500)", "G5K", Programs.tc, "tc", _ => Map.empty),
                 Workload("CC(RMAT-8K)", "RMAT-8M", Programs.cc, "cc", _ => Map.empty))
    val done = Seq(Result("RecStep", "TC(G500)", Ok(1.25, 42)), Result("RecStep", "CC(RMAT-8K)", Unsupported))
    val report = Tables.table3Report(ws, done)
    assert(report.incomplete.isEmpty)
    assert(report.text.contains("| TC(G500) | 1.25 s, 42 tuples [G5K] |"))
    for (st <- failures)
      assert(Tables.table3Report(ws, done.updated(1, done(1).copy(status = st))).incomplete.size == 1, st)
  }

  test("Table 4: crashes and non-convergence fail, timeouts and OOMs are only shown") {
    val cells = Seq(
      Result("BigDatalog", "TC(G1K)", Ok(1.0, 10)),
      Result("RecStep", "TC(G1K)", Ok(0.5, 10)),
      Result("Souffle", "CC(orkut-sub)", Unsupported),
      Result("Graspan", "CSDA(linux-a)", TimedOut(420)))
    val report = Tables.table4Report(cells)
    assert(report.crashed.isEmpty)
    val rows = report.text.linesIterator.toSeq
    assert(rows.contains("| | BigDatalog | RecStep | Souffle | Graspan |"))
    val ce = f"${1.0 / Tables.cores}%.2e (1.0 s)"
    assert(rows.contains(s"| TC(G1K) | $ce [2.75e-04] | ${f"${2.0 / Tables.cores}%.2e"} (0.5 s) [1.12e-03] | [2.92e-04] | - |"))
    assert(rows.contains("| CC(orkut-sub) | [2.17e-04] | [5.81e-04] | -- [-] | - |"))
    assert(rows.exists(_.contains(">420s [2.22e-06]")))
    for (st <- failures)
      assert(Tables.table4Report(cells :+ Result("RecStep", "CSPA(linux-a)", st)).crashed.size ==
        (if (st.isInstanceOf[Crashed] || st.isInstanceOf[NonConverged]) 1 else 0), st)
    assert(Tables.paperTable4.keySet.map(_._1) == Set("TC", "SG", "REACH", "CC", "SSSP", "AA", "CSDA", "CSPA"))
  }

  test("Figure 2 ablation: runtimes as a share of NO-OP, and crashed arms fail") {
    val arms = Tables.ablationArms.map(_._1)
    val results = arms.map(a => Result("RecStep", a, Ok(if (a == "RecStep-NO-OP") 4.0 else 1.0, 5)))
    val report = Tables.ablationReport("CSPA(quick)", results)
    assert(report.crashed.isEmpty)
    assert(report.text.contains("| RecStep (all opts) | 1.00 s (25%) [24%] |"))
    assert(report.text.contains("| RecStep-NO-OP | 4.00 s (100%) [100%] |"))
    for (st <- failures)
      assert(Tables.ablationReport("CSPA(quick)", results.updated(2, results(2).copy(status = st))).crashed.size ==
        (if (st.isInstanceOf[Crashed] || st.isInstanceOf[NonConverged]) 1 else 0), st)
  }
}
