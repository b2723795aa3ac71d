package repro.core

/** OOF (Optimization On the Fly, §5.1) modes, matching Figure 2's ablation:
  *  - Adaptive: per-iteration targeted stats (the RecStep default),
  *  - NoAnalyze ("OOF-NA"): the iteration-1 plan decisions are frozen,
  *  - FullAnalyze ("OOF-FA"): all possible stats are recollected on every
  *    updated table each iteration (pure overhead beyond Adaptive).
  */
sealed trait OofMode
object OofMode {
  case object Adaptive    extends OofMode
  case object NoAnalyze   extends OofMode
  case object FullAnalyze extends OofMode
}

/** DSD (Dynamic Set Difference, §5.1) strategy selection. */
sealed trait DsdMode
object DsdMode {
  /** Always one-phase (anti-join building on R). */
  case object Opsd extends DsdMode
  /** Always two-phase (intersection first). */
  case object Tpsd extends DsdMode
  /** Per-iteration choice via the Appendix-A cost model. */
  case object Dynamic extends DsdMode
}

/** Configuration of the RecStep engine; every optimization of §5 is
  * independently switchable so the Figure-2 ablation can be reproduced.
  *
  * Tuning values that no caller varies are constants of the evaluation
  * (`repro.core.Evaluation`), not fields: the DSD cost ratio α = 2.0, the
  * partition budget 64, the broadcast threshold of 1.5M rows, the small-R_δ
  * threshold of 65,536 rows below which FAST-DEDUP and TPSD are skipped, and
  * compaction every 24 delta pieces. None of them is a §5 switch, so the
  * ablation has no arm that varies them.
  */
final case class RecStepConf(
    /** Unified IDB Evaluation: all subqueries for one IDB in a single plan. */
    uie: Boolean = true,
    /** Optimization On the Fly. */
    oof: OofMode = OofMode.Adaptive,
    /** Dynamic Set Difference. */
    dsd: DsdMode = DsdMode.Dynamic,
    /** Evaluation as One Single Transaction: in-memory materialization only;
      * when false each iteration commits to disk (reliable checkpoint).
      */
    eost: Boolean = true,
    /** FAST-DEDUP via compact concatenated keys + specialized hash set. */
    fastDedup: Boolean = true,
    /** Parallel Bit-Matrix Evaluation for TC/SG-shaped programs (§5.3). */
    pbme: Boolean = false,
    /** PBME is only built when the active domain fits (§5.3). */
    pbmeMaxVertices: Int = 32 * 1024,
    /** Hard cap on iterations per stratum; a recursive stratum still
      * producing tuples at the cap raises [[NonConvergenceException]].
      */
    maxIterations: Int = 100_000,
)

object RecStepConf {
  /** The paper's full configuration (all optimizations on, PBME available). */
  val default: RecStepConf = RecStepConf(pbme = true)
  /** Everything off — "RecStep-NO-OP" in Figure 2. */
  val noOp: RecStepConf = RecStepConf(
    uie = false, oof = OofMode.NoAnalyze, dsd = DsdMode.Opsd,
    eost = false, fastDedup = false, pbme = false)
}
