package repro.pbme

import org.apache.spark.sql.SparkSession
import repro.{SparkSpec, TestUtil}
import repro.TestUtil._
import repro.datalog.{Analyzer, Parser}
import repro.programs.Programs
import repro.ref.NaiveEvaluator
import scala.jdk.CollectionConverters._

class PbmeSpec extends SparkSpec {
  implicit def s: SparkSession = spark

  // --------------------------------------------------------- bit matrices

  test("BitMatrix set/get/testAndSet") {
    val m = new BitMatrix(100)
    assert(!m.get(5, 77))
    m.set(5, 77)
    assert(m.get(5, 77))
    assert(!m.testAndSet(5, 77))
    assert(m.testAndSet(5, 78))
    assert(m.cardinality == 2)
  }

  test("BitMatrix row iteration and orRow") {
    val m = new BitMatrix(70)
    m.set(1, 1); m.set(1, 64); m.set(1, 70)
    var seen = List.empty[Int]
    m.foreachInRow(1)(j => seen ::= j)
    assert(seen.toSet == Set(1, 64, 70))
    val m2 = new BitMatrix(70)
    m2.orRow(2, m.row(1))
    assert(m2.get(2, 64) && m2.get(2, 70) && m2.rowCardinality(2) == 3)
  }

  test("BitMatrix clear") {
    val m = new BitMatrix(10)
    m.set(3, 4); m.clear(3, 4)
    assert(!m.get(3, 4) && m.cardinality == 0)
  }

  test("AtomicBitMatrix testAndSet claims exactly once") {
    val m = new AtomicBitMatrix(50)
    assert(m.testAndSet(7, 9))
    assert(!m.testAndSet(7, 9))
    assert(m.get(7, 9) && !m.get(9, 7))
    assert(m.cardinality == 1)
  }

  test("AtomicBitMatrix concurrent claims are unique") {
    val m = new AtomicBitMatrix(64)
    val claims = new java.util.concurrent.atomic.AtomicInteger(0)
    val threads = (0 until 8).map(_ => new Thread(() => {
      (1 to 64).foreach(i => (1 to 64).foreach(j => if (m.testAndSet(i, j)) claims.incrementAndGet()))
    }))
    threads.foreach(_.start()); threads.foreach(_.join())
    assert(claims.get() == 64 * 64)
    assert(m.cardinality == 64 * 64)
  }

  test("tuples materialization") {
    val m = new BitMatrix(5)
    m.set(1, 2); m.set(4, 5)
    assert(m.tuples.toSet == Set((1L, 2L), (4L, 5L)))
  }

  // --------------------------------------------------------------- kernels

  test("PBME TC matches the reference on random graphs") {
    for (seed <- 1 to 5) {
      val edges = TestUtil.randomEdges(30, 70, seed).toVector
      val expected = NaiveEvaluator
        .evaluate(Programs.tc, Map("arc" -> edgesToTuples(edges.toSet)))("tc")
      val got = Pbme.tc(edges, 30).tuples.map(t => Vector(t._1, t._2)).toSet
      assert(got == expected, s"seed $seed")
    }
  }

  test("PBME TC with a single worker thread") {
    val edges = TestUtil.randomEdges(20, 40, 9).toVector
    val expected = Pbme.tc(edges, 20).tuples.toSet
    assert(Pbme.tc(edges, 20, threads = 1).tuples.toSet == expected)
  }

  test("PBME SG matches the reference on random graphs") {
    for (seed <- 1 to 5) {
      val edges = TestUtil.randomEdges(18, 30, seed + 10).toVector
      val expected = NaiveEvaluator
        .evaluate(Programs.sg, Map("arc" -> edgesToTuples(edges.toSet)))("sg")
      val got = Pbme.sg(edges, 18).tuples.map(t => Vector(t._1, t._2)).toSet
      assert(got == expected, s"seed $seed")
    }
  }

  test("PBME SG derives diagonal pairs via the recursive rule") {
    val edges = Vector((1L, 2L), (1L, 3L), (2L, 4L), (3L, 4L))
    val got = Pbme.sg(edges, 4).tuples.toSet
    assert(got.contains((4L, 4L)))
  }

  test("PBME TC on an empty graph") {
    assert(Pbme.tc(Vector.empty, 5).cardinality == 0)
  }

  // --------------------------------------------------------------- matcher

  private def analyzed(src: String) = Analyzer.analyze(Parser.parse(src))

  test("matcher recognizes the TC program") {
    assert(PbmeMatcher.matchProgram(analyzed(Programs.tcSource))
      .contains(PbmeMatcher.TcShape("tc", "arc")))
  }

  test("matcher recognizes the SG program") {
    assert(PbmeMatcher.matchProgram(analyzed(Programs.sgSource))
      .contains(PbmeMatcher.SgShape("sg", "arc")))
  }

  test("matcher recognizes renamed variables") {
    val src = "closure(a, b) :- edge(a, b). closure(a, b) :- closure(a, m), edge(m, b)."
    assert(PbmeMatcher.matchProgram(analyzed(src))
      .contains(PbmeMatcher.TcShape("closure", "edge")))
  }

  test("matcher rejects left-linear TC variants") {
    val src = "tc(x, y) :- arc(x, y). tc(x, y) :- arc(x, z), tc(z, y)."
    assert(PbmeMatcher.matchProgram(analyzed(src)).isEmpty)
  }

  test("matcher rejects REACH, CSDA, Andersen") {
    assert(PbmeMatcher.matchProgram(Analyzer.analyze(Programs.reach)).isEmpty)
    assert(PbmeMatcher.matchProgram(Analyzer.analyze(Programs.csda)).isEmpty)
    assert(PbmeMatcher.matchProgram(Analyzer.analyze(Programs.andersen)).isEmpty)
  }

  test("matcher rejects a TC variant with an extra filter") {
    val src = "tc(x, y) :- arc(x, y). tc(x, y) :- tc(x, z), arc(z, y), x != y."
    assert(PbmeMatcher.matchProgram(analyzed(src)).isEmpty)
  }

  // ----------------------------------------------------------- tryEvaluate

  test("tryEvaluate runs TC when the domain fits") {
    val edges = TestUtil.randomEdges(12, 25, 3)
    val arc = edgesDF(spark, edges.toSeq)
    val shape = PbmeMatcher.TcShape("tc", "arc")
    val out = Pbme.tryEvaluate(shape, Map("arc" -> arc), maxVertices = 100).get
    val expected = NaiveEvaluator.evaluate(Programs.tc, Map("arc" -> edgesToTuples(edges)))("tc")
    assert(dfToSet(out("tc")) == expected)
  }

  test("tryEvaluate declines when the domain exceeds the cap") {
    val arc = edgesDF(spark, Seq((1L, 500L)))
    val shape = PbmeMatcher.TcShape("tc", "arc")
    assert(Pbme.tryEvaluate(shape, Map("arc" -> arc), maxVertices = 100).isEmpty)
  }

  test("tryEvaluate declines on non-positive vertex ids") {
    val arc = edgesDF(spark, Seq((0L, 3L)))
    val shape = PbmeMatcher.TcShape("tc", "arc")
    assert(Pbme.tryEvaluate(shape, Map("arc" -> arc), maxVertices = 100).isEmpty)
  }

  // --------------------------------------------------------- cancellation

  test("an interrupted PBME kernel returns within 2 s and leaves no pbme-* thread") {
    def workers = Thread.getAllStackTraces.keySet.asScala.filter(t => t.getName.startsWith("pbme-") && t.isAlive)
    // Each kernel runs for several seconds uninterrupted on these graphs.
    val tcEdges = TestUtil.randomEdges(6000, 60000, 3).toVector
    val sgEdges = TestUtil.randomEdges(3000, 60000, 3).toVector
    val kernels = Seq[(String, () => Unit)](
      "TC" -> (() => { Pbme.tc(tcEdges, 6000); () }),
      "SG" -> (() => { Pbme.sg(sgEdges, 3000); () }))
    for ((name, kernel) <- kernels) {
      @volatile var thrown: Option[Throwable] = None
      val caller = new Thread(() => try kernel() catch { case e: Throwable => thrown = Some(e) })
      caller.start()
      while (workers.isEmpty && caller.isAlive) Thread.sleep(5)
      Thread.sleep(200)
      assert(caller.isAlive, s"$name finished before it could be interrupted")
      val t0 = System.nanoTime()
      caller.interrupt()
      caller.join(2000)
      while (workers.nonEmpty && System.nanoTime() - t0 < 2e9) Thread.sleep(5)
      assert(!caller.isAlive, s"$name kept running after the interrupt")
      assert(workers.isEmpty, s"$name left ${workers.map(_.getName)} running")
      assert(thrown.exists(_.isInstanceOf[InterruptedException]), s"$name ended with $thrown")
    }
  }
}
