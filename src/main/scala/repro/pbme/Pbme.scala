package repro.pbme

import java.util.concurrent.{ExecutorService, Executors}
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.types.{LongType, StructField, StructType}
import org.apache.spark.sql.Row
import scala.collection.mutable

/** Parallel Bit-Matrix Evaluation (§5.3, Algorithms 2 and 3).
  *
  * The join and deduplication are fused into bit operations on a dense
  * matrix over the active domain, with rows partitioned round-robin across
  * `k` worker threads:
  *
  *  - TC (Algorithm 2): each thread owns its rows outright — the per-row
  *    frontier only ever updates row i — so a plain [[BitMatrix]] suffices
  *    (zero coordination).
  *  - SG (Algorithm 3): a derived pair (q,p) lands in a row owned by a
  *    different thread, so facts are claimed with a lock-free CAS
  *    ([[AtomicBitMatrix]]) and each thread keeps processing the pairs it
  *    derives (the paper's uncoordinated variant, including its skew).
  */
object Pbme {

  /** Worker pool for one kernel call. The caller shuts it down with
    * `shutdownNow()`, whose interrupt the workers poll, so a cancelled
    * kernel stops burning CPU within one row (TC) or 4096 pairs (SG).
    */
  private def workers(threads: Int): ExecutorService =
    Executors.newFixedThreadPool(threads, r => {
      val t = new Thread(r, "pbme-worker"); t.setDaemon(true); t
    })

  private def interrupted(): Nothing = throw new RuntimeException(new InterruptedException("PBME kernel interrupted"))

  /** Transitive closure of `arcs` over vertices {1..n}. */
  def tc(arcs: Seq[(Long, Long)], n: Int, threads: Int = Runtime.getRuntime.availableProcessors()): BitMatrix = {
    val mArc = new BitMatrix(n)
    arcs.foreach { case (u, v) => mArc.set(u.toInt, v.toInt) }
    val mTc = new BitMatrix(n)
    (1 to n).foreach(i => mTc.orRow(i, mArc.row(i))) // M_tc <- M_arc

    val pool = workers(threads)
    try {
      val tasks = (0 until threads).map { p =>
        pool.submit(new Runnable {
          override def run(): Unit = {
            var i = p + 1
            while (i <= n) { // round-robin row partitioning
              if (Thread.currentThread().isInterrupted) interrupted()
              var delta = new mutable.ArrayDeque[Int]()
              mTc.foreachInRow(i)(delta.append(_))
              while (delta.nonEmpty) {
                val next = new mutable.ArrayDeque[Int]()
                while (delta.nonEmpty) {
                  val t = delta.removeHead()
                  mArc.foreachInRow(t) { j =>
                    if (mTc.testAndSet(i, j)) next.append(j)
                  }
                }
                delta = next
              }
              i += threads
            }
          }
        })
      }
      tasks.foreach(_.get())
    } finally { pool.shutdownNow(); () }
    mTc
  }

  /** Same generation of `arcs` over vertices {1..n}. */
  def sg(arcs: Seq[(Long, Long)], n: Int, threads: Int = Runtime.getRuntime.availableProcessors()): AtomicBitMatrix = {
    // vector index V_arc[x] = children of x
    val adj = Array.fill(n + 1)(new mutable.ArrayBuffer[Int]())
    arcs.foreach { case (u, v) => adj(u.toInt) += v.toInt }
    val vArc: Array[Array[Int]] = adj.map(_.toArray)

    val mSg = new AtomicBitMatrix(n)
    // base: sg(x,y) :- arc(p,x), arc(p,y), x != y
    val seeds = new mutable.ArrayBuffer[(Int, Int)]()
    var p = 1
    while (p <= n) {
      val cs = vArc(p)
      var a = 0
      while (a < cs.length) {
        var b = 0
        while (b < cs.length) {
          if (cs(a) != cs(b) && mSg.testAndSet(cs(a), cs(b))) seeds += ((cs(a), cs(b)))
          b += 1
        }
        a += 1
      }
      p += 1
    }

    val pool = workers(threads)
    try {
      val tasks = (0 until threads).map { t =>
        pool.submit(new Runnable {
          override def run(): Unit = {
            // round-robin partition of the seed pairs; each thread then owns
            // whatever pairs it derives (untied to partitions — §5.3).
            val work = new mutable.ArrayDeque[(Int, Int)]()
            var s = t
            while (s < seeds.length) { work.append(seeds(s)); s += threads }
            var done = 0
            while (work.nonEmpty) {
              done += 1
              if ((done & 0xFFF) == 0 && Thread.currentThread().isInterrupted) interrupted()
              val (a, b) = work.removeHead()
              val qs = vArc(a)
              val ps = vArc(b)
              var qi = 0
              while (qi < qs.length) {
                var pi = 0
                while (pi < ps.length) {
                  // NB: the recursive SG rule has no x != y guard (only the
                  // base rule does), so diagonal pairs are derivable here.
                  val q = qs(qi); val pp = ps(pi)
                  if (mSg.testAndSet(q, pp)) work.append((q, pp))
                  pi += 1
                }
                qi += 1
              }
            }
          }
        })
      }
      tasks.foreach(_.get())
    } finally { pool.shutdownNow(); () }
    mSg
  }

  /** Engine entry: evaluate a PBME-matched program if the active domain fits
    * under `maxVertices` (§5.3's memory-fit condition); None = fall back to
    * the relational path.
    */
  def tryEvaluate(
      shape: PbmeMatcher.Shape,
      edb: Map[String, DataFrame],
      maxVertices: Int,
  )(implicit spark: SparkSession): Option[Map[String, DataFrame]] = {
    val arcDf = edb.getOrElse(shape.edb, return None)
    val arcs = arcDf.collect().map(r => (r.getLong(0), r.getLong(1))).toSeq
    val n = if (arcs.isEmpty) 0L else arcs.map(e => math.max(e._1, e._2)).max
    if (n > maxVertices || arcs.exists(e => e._1 <= 0 || e._2 <= 0)) return None
    val nv = n.toInt
    val tuples: Iterator[(Long, Long)] = shape match {
      case PbmeMatcher.TcShape(_, _) => tc(arcs, nv).tuples
      case PbmeMatcher.SgShape(_, _) => sg(arcs, nv).tuples
    }
    Some(Map(shape.idb -> toDF(spark, tuples)))
  }

  private def toDF(spark: SparkSession, tuples: Iterator[(Long, Long)]): DataFrame = {
    val schema = StructType(Seq(StructField("c0", LongType, nullable = false),
                                StructField("c1", LongType, nullable = false)))
    val rows = tuples.map(t => Row(t._1, t._2)).toArray
    spark.createDataFrame(
      spark.sparkContext.parallelize(rows.toIndexedSeq, math.max(1, math.min(16, rows.length / 100000 + 1))),
      schema)
  }
}
