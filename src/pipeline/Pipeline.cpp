//===- pipeline/Pipeline.cpp ----------------------------------------------===//

#include "pipeline/Pipeline.h"

#include "analysis/CFGUtils.h"
#include "analysis/DominatorTree.h"
#include "analysis/Liveness.h"
#include "baseline/ChaitinBriggsCoalescer.h"
#include "coalesce/CoalescingChecker.h"
#include "coalesce/FastCoalescer.h"
#include "ir/Function.h"
#include "ir/Module.h"
#include "regalloc/SpillRewriter.h"
#include "ssa/SSABuilder.h"
#include "ssa/StandardDestruction.h"
#include "support/Timer.h"

#include <algorithm>
#include <optional>
#include <stdexcept>

using namespace fcc;

const char *fcc::pipelineName(PipelineKind Kind) {
  switch (Kind) {
  case PipelineKind::Standard:
    return "Standard";
  case PipelineKind::New:
    return "New";
  case PipelineKind::Briggs:
    return "Briggs";
  case PipelineKind::BriggsImproved:
    return "Briggs*";
  }
  return "<invalid>";
}

// The optional optimization stage: runs the configured pass sequence over
// the freshly built SSA form. Passes may fold branches and delete blocks,
// so critical edges are re-split (ADCE retargeting can create new ones)
// and the dominator tree is rebuilt for the downstream coalescers. The
// whole stage is timed and the caller subtracts it from TimeMicros — the
// paper's window measures the SSA round trip, not the optimizer.
static uint64_t runOptStage(Function &F, const PipelineOptions &Opts,
                            std::optional<DominatorTree> &DT,
                            PipelineResult &Result,
                            std::vector<PhaseSample> *Ph) {
  if (Opts.Passes.empty())
    return 0;
  Timer OptClock;
  PassManagerOptions PM;
  PM.Instr = Opts.Instr;
  PM.Samples = Ph;
  runPassSequence(F, Opts.Passes, PM);
  {
    PhaseScope P(Opts.Instr, "opt-resplit-edges", "opt", Ph);
    Result.CriticalEdgesSplit += splitCriticalEdges(F);
  }
  {
    PhaseScope P(Opts.Instr, "opt-redominate", "opt", Ph);
    DT.emplace(F);
  }
  return OptClock.elapsedMicros();
}

// The optional register-allocation stage: runs after the coalescing
// pipeline (outside the paper's timing window) and only when a machine
// model was requested. The rewriter converges or throws, so on return the
// function's allocation is always complete.
static void runRegallocStage(Function &F, const PipelineOptions &Opts,
                             PipelineResult &Result,
                             std::vector<PhaseSample> *Ph) {
  if (!Opts.Machine)
    return;
  PhaseScope P(Opts.Instr, "regalloc", "regalloc", Ph);
  SpillRewriteOptions SR;
  SR.Machine = *Opts.Machine;
  SpillRewriteResult R = insertSpillCode(F, SR);
  Result.Allocated = true;
  Result.RegistersUsed = R.Alloc.RegistersUsed;
  Result.SpillStores = R.SpillStores;
  Result.Reloads = R.Reloads;
  Result.SpillSlots = R.SlotsUsed;
  Result.RangesSplit = R.RangesSplit;
  Result.RegallocIterations = R.Iterations;
}

// Both entry points: runPipeline, and runPipelineChecked with \p CheckError
// set, which adds the audit to the New configuration and returns false on
// a refutation.
static bool runPipelineImpl(Function &F, const PipelineOptions &Opts,
                            PipelineResult &Result, std::string *CheckError) {
  const PipelineKind Kind = Opts.Kind;
  const Instrumentation *Instr = Opts.Instr;
  Result = PipelineResult();
  Result.Kind = Kind;
  // When instrumented, every top-level phase lands in Result.Phases; only
  // the "pipeline"-category ones below run inside the paper's clock.
  std::vector<PhaseSample> *Ph = Instr ? &Result.Phases : nullptr;
  {
    PhaseScope Split(Instr, "split-critical-edges", "setup", Ph);
    Result.CriticalEdgesSplit = splitCriticalEdges(F);
  }

  // Live-range web identification undoes SSA renaming by name: it relies
  // on every phi web mirroring exactly one source variable, which holds
  // only for unoptimized, unfolded SSA. SCCP's copy forwarding can merge
  // names from distinct origins (even two parameters) into one web, and
  // rewriting such a web to one name would change semantics — so the opt
  // stage is a configuration error for the Briggs pipelines, not a silent
  // no-op.
  const bool IsBriggs =
      Kind == PipelineKind::Briggs || Kind == PipelineKind::BriggsImproved;
  if (IsBriggs && !Opts.Passes.empty())
    throw std::invalid_argument(
        "optimization passes are not supported with the Briggs pipelines "
        "(live-range webs assume unoptimized SSA)");

  Timer Clock; // The paper's timer: starts right before SSA construction.
  std::optional<DominatorTree> DT;
  {
    PhaseScope P(Instr, "dominators", "pipeline", Ph);
    DT.emplace(F);
  }
  SSABuildOptions BuildOpts;
  BuildOpts.FoldCopies = !IsBriggs;
  SSABuildStats Ssa;
  {
    PhaseScope P(Instr, "ssa-build", "pipeline", Ph);
    Ssa = buildSSA(F, *DT, BuildOpts);
  }
  uint64_t OptMicros = runOptStage(F, Opts, DT, Result, Ph);

  switch (Kind) {
  case PipelineKind::Standard: {
    DestructionStats Destr;
    {
      PhaseScope P(Instr, "rewrite", "pipeline", Ph);
      Destr = destroySSAStandard(F);
    }
    uint64_t Elapsed = Clock.elapsedMicros();
    Result.TimeMicros = Elapsed > OptMicros ? Elapsed - OptMicros : 0;
    Result.PhisInserted = Ssa.PhisInserted;
    Result.PeakBytes =
        std::max(Ssa.PeakBytes, Destr.PeakBytes) + DT->bytes();
    break;
  }
  case PipelineKind::New: {
    std::optional<Liveness> LV;
    {
      PhaseScope P(Instr, "liveness", "pipeline", Ph);
      LV.emplace(F);
    }
    FastCoalescerOptions CoOpts;
    CoOpts.Instr = Instr;
    std::optional<FastCoalescer> Coalescer;
    {
      PhaseScope P(Instr, "forest-walk", "pipeline", Ph);
      Coalescer.emplace(F, *DT, *LV, CoOpts);
      Coalescer->computePartition();
    }
    // The audit is diagnostics, not conversion work: keep its cost out of
    // the paper-comparable timing (and out of the "pipeline" phase
    // samples). The partition check presumes SSA form, so that is verified
    // first.
    uint64_t CheckMicros = 0;
    if (CheckError) {
      Timer CheckClock;
      bool Valid;
      {
        PhaseScope P(Instr, "partition-check", "audit");
        Valid = verifySSAForm(F, *DT, *CheckError);
        if (!Valid)
          *CheckError = "not in SSA form: " + *CheckError;
        else
          Valid = checkCoalescing(
              F, *LV, [&](const Variable *V) { return Coalescer->rep(V); },
              *CheckError);
      }
      CheckMicros = CheckClock.elapsedMicros();
      if (!Valid)
        return false;
    }
    FastCoalesceStats Co;
    {
      PhaseScope P(Instr, "rewrite", "pipeline", Ph);
      Co = Coalescer->rewrite();
    }
    uint64_t Elapsed = Clock.elapsedMicros();
    uint64_t Excluded = CheckMicros + OptMicros;
    Result.TimeMicros = Elapsed > Excluded ? Elapsed - Excluded : 0;
    Result.PhisInserted = Ssa.PhisInserted;
    Result.PeakBytes =
        std::max(Ssa.PeakBytes, Co.PeakBytes + LV->bytes()) + DT->bytes();
    break;
  }
  case PipelineKind::Briggs:
  case PipelineKind::BriggsImproved: {
    {
      PhaseScope P(Instr, "live-range-webs", "pipeline", Ph);
      identifyLiveRangeWebs(F);
    }
    Timer CoalesceClock;
    BriggsOptions BO;
    BO.Improved = Kind == PipelineKind::BriggsImproved;
    BO.Instr = Instr;
    BriggsStats Briggs;
    {
      PhaseScope P(Instr, "briggs-coalesce", "pipeline", Ph);
      Briggs = coalesceCopiesBriggs(F, BO);
    }
    Result.CoalesceTimeMicros = CoalesceClock.elapsedMicros();
    Result.TimeMicros = Clock.elapsedMicros();
    Result.PhisInserted = Ssa.PhisInserted;
    Result.PeakBytes = std::max(Ssa.PeakBytes, Briggs.PeakBytes) + DT->bytes();
    Result.GraphBytesPerPass = std::move(Briggs.GraphBytesPerPass);
    Result.CoalescePasses = Briggs.Iterations;
    break;
  }
  }

  Result.StaticCopies = F.staticCopyCount();
  runRegallocStage(F, Opts, Result, Ph);
  return true;
}

PipelineResult fcc::runPipeline(Function &F, const PipelineOptions &Opts) {
  PipelineResult Result;
  runPipelineImpl(F, Opts, Result, nullptr);
  return Result;
}

bool fcc::runPipelineChecked(Function &F, const PipelineOptions &Opts,
                             PipelineResult &Result, std::string &Error) {
  PipelineOptions New = Opts;
  New.Kind = PipelineKind::New;
  return runPipelineImpl(F, New, Result, &Error);
}

RoutineReport fcc::runOnRoutine(const RoutineSpec &Spec, PipelineKind Kind,
                                bool Execute) {
  RoutineReport Report;
  Report.Name = Spec.Name;
  std::unique_ptr<Module> M = Spec.materialize();
  Function &F = *M->functions()[0];
  Report.InputStaticCopies = F.staticCopyCount();
  Report.InputInstructions = F.instructionCount();
  Report.Compile = runPipeline(F, Kind);
  if (Execute)
    Report.Exec = Interpreter().run(F, Spec.Args);
  return Report;
}
