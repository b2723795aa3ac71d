package perfbench

import org.apache.spark.sql.SparkSession
import repro.core.{RecStepConf, RecStepEngine}
import repro.graphs.GraphData

/** Checks the benchmark's own machinery on shrunken workloads: the Spark
  * and reference digests agree, the engine's output matches the reference,
  * a fixpoint with one tuple removed or added is caught, and call sites are
  * attributed to the right engine methods. Returns the process exit code.
  */
object SelfTest {

  def run(): Int = {
    val spark = Session.start(Runtime.getRuntime.availableProcessors())
    var failures = 0
    def check(what: String, ok: Boolean): Unit = {
      Console.err.println(s"[self-test] ${if (ok) "ok  " else "FAIL"} $what")
      if (!ok) failures += 1
    }

    for ((frames, site) <- Seq(
           "repro.core.Evaluation.$anonfun$loadEdbs$1(RecStepEngine.scala:118)" -> "loadEdbs",
           "repro.core.Evaluation.materialize(RecStepEngine.scala:151)\n" +
             "scala.collection.immutable.List.map(List.scala:1)\n" +
             "repro.core.Evaluation.evalIdb(RecStepEngine.scala:262)" -> "materialize",
           "repro.core.Evaluation.materialize(RecStepEngine.scala:151)\n" +
             "repro.core.Evaluation.repro$core$Evaluation$$maybeCompact(RecStepEngine.scala:312)" -> "maybeCompact",
           "repro.pbme.Pbme$.tryEvaluate(Pbme.scala:128)" -> "tryEvaluate",
           "perfbench.Run.evaluateOnce(Main.scala:200)" -> "result",
           "java.lang.Thread.run(Thread.java:840)" -> "other"))
      check(s"call site ${frames.linesIterator.next()} is $site", Sites.of(frames) == site)

    for (w <- Workloads.all(quick = true)) {
      val edges = w.generate(1L)
      val edb = edges.map { case (p, es) => p -> GraphData.toDF(spark, es) }
      val arcs = new Digest.Builder
      edges(w.arcs).foreach { case (a, b) => arcs.add(a, b) }
      check(s"${w.name}: Spark and JVM digests agree", Digest.of(edb(w.arcs)) == arcs.result)

      val reference = w.reference(edges)
      val out = new RecStepEngine(RecStepConf.default).evaluate(w.program, edb)(spark)(w.primary)
      check(s"${w.name}: fixpoint matches the reference ($reference)", Digest.of(out) == reference)
      check(s"${w.name}: fixpoint missing one tuple is caught",
        Mutations.withoutOne(out).exists(Digest.of(_) != reference))
      check(s"${w.name}: fixpoint with one extra tuple is caught",
        Digest.of(Mutations.withExtra(out)) != reference)
    }
    spark.stop()
    if (failures == 0) 0 else 1
  }
}
