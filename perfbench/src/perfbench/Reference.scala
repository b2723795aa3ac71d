package perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path}
import java.security.MessageDigest
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.expressions.XXH64
import org.apache.spark.sql.functions._
import repro.baselines.souffle.SouffleLite
import repro.datalog.Program
import repro.graphs.GraphData.Edges
import scala.collection.mutable

/** Order-independent fingerprint of a relation: its row count plus the sums
  * of the low and high 32-bit halves of each tuple's hash (Spark's
  * `xxhash64` over the columns, seed 42). Summing halves keeps every partial
  * sum far from overflow for any relation under 2^31 rows.
  */
final case class Digest(rows: Long, lo: Long, hi: Long) {
  override def toString: String = s"$rows rows, hash ${java.lang.Long.toHexString(lo * 31 + hi)}"
}

object Digest {

  final class Builder {
    private var rows, lo, hi = 0L
    def add(t: Long*): Unit = {
      var h = 42L
      t.foreach(v => h = XXH64.hashLong(v, h))
      rows += 1; lo += h & 0xffffffffL; hi += h >>> 32
    }
    def result: Digest = Digest(rows, lo, hi)
  }

  /** The same fingerprint computed by Spark over a DataFrame (one job). */
  def of(df: DataFrame): Digest = {
    val h = xxhash64(df.columns.toIndexedSeq.map(col): _*)
    val r = df.select(h.as("h")).agg(
      count(lit(1)),
      coalesce(sum(col("h").bitwiseAND(lit(0xffffffffL))), lit(0L)),
      coalesce(sum(shiftrightunsigned(col("h"), 32)), lit(0L))).head()
    Digest(r.getLong(0), r.getLong(1), r.getLong(2))
  }
}

/** Corruptions of a fixpoint that the output check must catch. */
object Mutations {
  /** The relation with its first row removed (None if it is empty). */
  def withoutOne(df: DataFrame): Option[DataFrame] =
    df.head(1).headOption.map { r =>
      val same = df.columns.indices.map(i => col(df.columns(i)) === lit(r.getLong(i))).reduce(_ && _)
      df.filter(!same)
    }

  /** The relation plus one tuple of -1s, a value no generator produces. */
  def withExtra(df: DataFrame): DataFrame =
    df.union(df.sparkSession.range(1).select(df.columns.toIndexedSeq.map(c => lit(-1L).as(c)): _*))
}

/** Reference fixpoints, computed without `RecStepEngine`: Souffle-lite for
  * CSDA and Andersen, and direct graph algorithms for CC and TC.
  */
object Reference {

  def souffle(program: Program, primary: String)(edb: Map[String, Edges]): Digest = {
    val in = edb.map { case (p, es) => p -> es.map { case (a, b) => Array(a, b) } }
    val b = new Digest.Builder
    new SouffleLite().evaluateInMemory(program, in)(primary).foreach(t => b.add(t.toIndexedSeq: _*))
    b.result
  }

  private def adjacency(arcs: Edges): Map[Long, Array[Long]] =
    arcs.groupMap(_._1)(_._2).map { case (u, vs) => u -> vs.toArray }

  /** `cc3` of the CC program: the least source with an out-arc that reaches
    * each vertex. Sources are visited in ascending order and each search
    * stops at vertices already labelled, since those carry a smaller label
    * that also covers everything reachable from them.
    */
  def ccLabels(arcs: Edges): Digest = {
    val adj = adjacency(arcs)
    val label = mutable.HashMap.empty[Long, Long]
    for (s <- adj.keys.toSeq.sorted if !label.contains(s)) {
      label(s) = s
      val stack = mutable.Stack(s)
      while (stack.nonEmpty)
        adj.getOrElse(stack.pop(), Array.empty[Long]).foreach { v =>
          if (!label.contains(v)) { label(v) = s; stack.push(v) }
        }
    }
    val b = new Digest.Builder
    label.foreach { case (v, l) => b.add(v, l) }
    b.result
  }

  /** Transitive closure by one graph search per source vertex. */
  def closure(arcs: Edges): Digest = {
    val adj = adjacency(arcs)
    val b = new Digest.Builder
    for (s <- adj.keys) {
      val seen = mutable.HashSet.empty[Long]
      val stack = mutable.Stack(s)
      while (stack.nonEmpty)
        adj.getOrElse(stack.pop(), Array.empty[Long]).foreach { v =>
          if (seen.add(v)) { b.add(s, v); stack.push(v) }
        }
    }
    b.result
  }

  /** Reference digests keyed by a hash of the workload's name and inputs, so
    * a seed's (possibly slow) reference is computed once per build directory.
    */
  final class Cache(dir: Path) {
    def apply(workload: String, edb: Map[String, Edges])(compute: => Digest): Digest = {
      val md = MessageDigest.getInstance("SHA-256")
      md.update(s"$workload;v1".getBytes(StandardCharsets.UTF_8))
      for ((p, es) <- edb.toSeq.sortBy(_._1)) {
        md.update(s";$p:${es.size}".getBytes(StandardCharsets.UTF_8))
        val buf = java.nio.ByteBuffer.allocate(16)
        es.foreach { case (a, b) => buf.clear(); buf.putLong(a).putLong(b); md.update(buf.array()) }
      }
      val file = dir.resolve(md.digest().map("%02x".format(_)).mkString)
      if (Files.exists(file)) {
        val Array(r, lo, hi) = Files.readString(file).trim.split(' ').map(_.toLong)
        Digest(r, lo, hi)
      } else {
        val d = compute
        Files.createDirectories(dir)
        val tmp = Files.createTempFile(dir, "ref", ".tmp")
        Files.writeString(tmp, s"${d.rows} ${d.lo} ${d.hi}\n")
        Files.move(tmp, file, java.nio.file.StandardCopyOption.ATOMIC_MOVE)
        d
      }
    }
  }
}
