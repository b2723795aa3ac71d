package repro.bench

import org.apache.spark.sql.SparkSession
import repro.SparkSpec

/** Reproduces Table 3: RecStep evaluates every benchmark program on every
  * dataset family (TC/SG on dense Gn graphs; REACH/CC/SSSP on the RMAT
  * sweep and the real-world stand-in; AA on datasets 1-7; CSDA/CSPA on the
  * three system-program stand-ins) to a fixpoint.
  */
class Table3WorkloadsBench extends SparkSpec {
  implicit def s: SparkSession = spark

  test("Table 3: RecStep completes the full workload matrix") {
    val report = Tables.table3(quick = sys.env.contains("BENCH_QUICK"))
    assert(report.incomplete.isEmpty,
      s"a workload crashed, ran out of memory, timed out or did not converge: ${report.incomplete}")
  }
}
