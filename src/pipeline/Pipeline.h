//===- pipeline/Pipeline.h - End-to-end configurations ----------*- C++ -*-===//
///
/// \file
/// The four SSA-round-trip configurations the paper's evaluation compares:
///
///   Standard — pruned SSA with copy folding, naive phi instantiation
///              (Briggs et al.), no copy elimination;
///   New      — same SSA, the paper's dominance-forest coalescer;
///   Briggs   — pruned SSA without folding, phi webs as live ranges, the
///              classic interference-graph build/coalesce loop;
///   Briggs*  — Briggs with copy-involved-only graph rebuilds (Section 4.1).
///
/// Timing follows the paper: the clock starts immediately before SSA
/// construction and stops when the code is rewritten. Critical edges are
/// split beforehand ("after we have read in the code").
///
/// Re-entrancy guarantee: runPipeline, runPipelineChecked and runOnRoutine
/// are safe to call concurrently from multiple threads as long as each call
/// operates on a distinct Function (for runOnRoutine, each call materializes
/// its own Module). Every pass and analysis in the repository — SSABuilder,
/// Liveness, DominatorTree, FastCoalescer, StandardDestruction, the Briggs
/// coalescers, the verifier, the interpreter and the generator — keeps all
/// mutable state in objects scoped to one call; the only function-local
/// statics in the library are immutable (constexpr opcode tables in the
/// generator, the lazily built `const` kernel suite, whose initialization
/// C++ guarantees thread-safe). New passes must preserve this property:
/// no mutable globals, no caches keyed off raw pointers shared across
/// functions. The parallel compilation service (src/service/) depends on
/// it for function-level sharding.
///
//===----------------------------------------------------------------------===//

#ifndef FCC_PIPELINE_PIPELINE_H
#define FCC_PIPELINE_PIPELINE_H

#include "analysis/DominatorTree.h"
#include "analysis/Liveness.h"
#include "interp/Interpreter.h"
#include "opt/PassManager.h"
#include "support/Stats.h"
#include "workload/KernelSuite.h"
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace fcc {

class Function;
struct MachineModel;

/// Which configuration to run.
enum class PipelineKind { Standard, New, Briggs, BriggsImproved };

/// Display name ("Standard", "New", "Briggs", "Briggs*").
const char *pipelineName(PipelineKind Kind);

/// Measurements from one pipeline run over one function.
struct PipelineResult {
  PipelineKind Kind = PipelineKind::Standard;
  /// Wall-clock from SSA construction to rewritten code (Table 2).
  uint64_t TimeMicros = 0;
  /// Peak bytes of pass-owned data structures (Table 3).
  size_t PeakBytes = 0;
  /// Copies left in the rewritten code (Table 5).
  unsigned StaticCopies = 0;
  unsigned PhisInserted = 0;
  unsigned CriticalEdgesSplit = 0;
  /// Briggs variants: interference-graph bytes per build/coalesce pass
  /// (Table 1) and the number of passes.
  std::vector<size_t> GraphBytesPerPass;
  unsigned CoalescePasses = 0;
  /// Briggs variants: wall-clock of the coalescing phase alone (Table 1).
  uint64_t CoalesceTimeMicros = 0;
  /// Per-phase breakdown, filled only when the run was instrumented. The
  /// samples are the non-overlapping top-level phases in execution order;
  /// the ones inside the paper's timed window ("pipeline"-category phases:
  /// dominators, ssa-build, liveness, forest-walk/live-range-webs,
  /// briggs-coalesce, rewrite) sum to TimeMicros up to clock granularity.
  /// split-critical-edges runs before the paper's clock starts and is
  /// outside the window, as are "regalloc" (category "regalloc") when a
  /// machine model requests allocation and the "opt-*" samples (category
  /// "opt") when PipelineOptions::Passes is non-empty.
  std::vector<PhaseSample> Phases;

  /// Register-allocation stage results, filled only when
  /// PipelineOptions::Machine was set (Allocated == true). The stage runs
  /// insertSpillCode to convergence, so the numbers always describe a
  /// COMPLETE allocation: every variable of the rewritten function holds a
  /// register and the spill set is empty.
  bool Allocated = false;
  /// Distinct registers used by the final assignment.
  unsigned RegistersUsed = 0;
  /// Static Spill / Reload instructions inserted by the rewriter.
  unsigned SpillStores = 0;
  unsigned Reloads = 0;
  /// Distinct spill slots assigned.
  unsigned SpillSlots = 0;
  /// Victims handled by live-range splitting instead of spill-everywhere.
  unsigned RangesSplit = 0;
  /// Color/rewrite rounds until convergence (1 = no spilling needed).
  unsigned RegallocIterations = 0;
};

/// Everything one pipeline invocation can be configured with.
struct PipelineOptions {
  PipelineKind Kind = PipelineKind::New;
  /// Two single-value tags that the DominatorTree and Liveness constructors
  /// accept and ignore. They exist only because perfbench/src/Compile.cpp,
  /// which the benchmark builds as it stands, passes them; nothing else
  /// reads or sets them.
  struct {
    DominatorsTag Dominators;
    LivenessTag Liveness;
  } Analyses;
  /// When non-null, each phase is timed into Result.Phases and reported to
  /// the instrumentation's sinks (registry counters/timers, Chrome trace
  /// events); null is the uninstrumented fast path with no extra clock
  /// reads.
  const Instrumentation *Instr = nullptr;
  /// When non-null, a register-allocation stage runs after the coalescing
  /// pipeline: the function is colored against this machine's banks with
  /// spill code inserted until allocation succeeds (see SpillRewriter.h).
  /// The stage runs outside the paper's timing window. Throws
  /// std::runtime_error if an infeasible bank never converges.
  const MachineModel *Machine = nullptr;
  /// Optimization passes (opt/PassManager.h) run over the SSA form after
  /// construction and before liveness/coalescing, so the coalescers see
  /// optimized phi webs and copy chains. The stage's phases carry category
  /// "opt" and its time is excluded from TimeMicros (like the audit in
  /// runPipelineChecked) — the paper's window measures the SSA round trip,
  /// not the optimizer. Empty (the default) skips the stage entirely.
  /// Not supported with the Briggs pipelines (runPipeline throws
  /// std::invalid_argument): live-range web identification undoes SSA
  /// renaming by name and requires unoptimized SSA.
  std::vector<PassKind> Passes;
};

/// Runs one configuration over \p F in place. \p F must be a verified,
/// strict, phi-free input program.
PipelineResult runPipeline(Function &F, const PipelineOptions &Opts);

/// Convenience overload: \p Kind with default options.
inline PipelineResult runPipeline(Function &F, PipelineKind Kind,
                                  const Instrumentation *Instr = nullptr) {
  PipelineOptions Opts;
  Opts.Kind = Kind;
  Opts.Instr = Instr;
  return runPipeline(F, Opts);
}

/// The New configuration with a safety net: after the coalescer decides its
/// partition (phases 1-4) and before any rewriting, verifySSAForm checks
/// the SSA form and the assignment is cross-validated with
/// CoalescingChecker against exact SSA liveness. On
/// success behaves exactly like runPipeline with Kind New (Opts.Kind is
/// ignored), with the checker's own time excluded from TimeMicros (and from
/// the "pipeline" phase samples — the audit traces under category "audit").
/// On refutation returns false, fills \p Error with the SSA violation or
/// the offending pair and leaves \p F in SSA form.
bool runPipelineChecked(Function &F, const PipelineOptions &Opts,
                        PipelineResult &Result, std::string &Error);

/// Convenience overload with default options.
inline bool runPipelineChecked(Function &F, PipelineResult &Result,
                               std::string &Error,
                               const Instrumentation *Instr = nullptr) {
  PipelineOptions Opts;
  Opts.Instr = Instr;
  return runPipelineChecked(F, Opts, Result, Error);
}

/// One routine compiled under one configuration, optionally executed.
struct RoutineReport {
  std::string Name;
  PipelineResult Compile;
  /// Filled when Execute was requested: the transformed routine run on the
  /// spec's arguments (Table 4's dynamic copies).
  ExecutionResult Exec;
  /// Metrics of the unmodified input program, for reference columns.
  unsigned InputStaticCopies = 0;
  unsigned InputInstructions = 0;
};

/// Materializes \p Spec, runs \p Kind, optionally interprets the result.
RoutineReport runOnRoutine(const RoutineSpec &Spec, PipelineKind Kind,
                           bool Execute);

} // namespace fcc

#endif // FCC_PIPELINE_PIPELINE_H
