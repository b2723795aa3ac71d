package repro.bench

import org.apache.spark.sql.SparkSession
import repro.SparkSpec

/** Reproduces the Figure 2 ablation: RecStep on the CSPA(httpd) stand-in
  * with each §5 optimization disabled, runtimes normalized to
  * RecStep-NO-OP. The paper's shape: all-opts ≈ 24% of NO-OP, OOF-NA ≈ 63%,
  * OOF-FA ≈ 41%.
  */
class AblationBench extends SparkSpec {
  implicit def s: SparkSession = spark

  test("Figure 2: optimization ablation on CSPA") {
    val report = Tables.ablation(quick = sys.env.contains("BENCH_QUICK"))
    assert(report.crashed.isEmpty, s"an ablation configuration crashed or did not converge: ${report.crashed}")
  }
}
