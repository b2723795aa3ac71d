package repro.bench

import org.apache.spark.sql.SparkSession
import repro.SparkSpec

/** Reproduces Table 1: the capability matrix is probed on the live engines
  * (each "yes/no" cell is the observed behaviour, asserted against the
  * paper's claim), and CPU utilization / memory are measured.
  */
class Table1CapabilitiesBench extends SparkSpec {
  implicit def s: SparkSession = spark

  test("Table 1: capability matrix matches the paper") {
    val report = Tables.table1(quick = sys.env.contains("BENCH_QUICK"))
    val diverged = Tables.capabilityMismatches(report)
    assert(diverged.isEmpty, s"a probed capability diverged from the paper's Table 1: $diverged")
  }
}
