//===- Compile.cpp - Untraced and traced compiles, output checks ----------===//

#include "Harness.h"

#include "analysis/CFGUtils.h"
#include "analysis/DominatorTree.h"
#include "analysis/Liveness.h"
#include "coalesce/FastCoalescer.h"
#include "ir/Function.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Module.h"
#include "ir/Verifier.h"
#include "opt/PassManager.h"
#include "regalloc/SpillRewriter.h"
#include "ssa/SSABuilder.h"

#include <algorithm>
#include <cstdio>
#include <unordered_set>

using namespace fcc;

namespace perfbench {

PipelineOptions Config::pipelineOptions() const {
  PipelineOptions O;
  O.Kind = PipelineKind::New;
  O.Passes = Passes;
  O.Machine = Machine ? &*Machine : nullptr;
  return O;
}

void OutputCounts::add(const OutputCounts &O) {
  StaticCopies += O.StaticCopies;
  OutputInsts += O.OutputInsts;
  SpillOps += O.SpillOps;
  DynamicCopies += O.DynamicCopies;
  DynamicInsts += O.DynamicInsts;
  InterpNs += O.InterpNs;
}

void LayerCounts::add(const LayerCounts &O) {
  InputInsts += O.InputInsts;
  Phis += O.Phis;
  CopiesFolded += O.CopiesFolded;
  SsaPeakBytes = std::max(SsaPeakBytes, O.SsaPeakBytes);
  LivenessBytes = std::max(LivenessBytes, O.LivenessBytes);
  CoalescePeakBytes = std::max(CoalescePeakBytes, O.CoalescePeakBytes);
  CopiesInserted += O.CopiesInserted;
  FilterRejections += O.FilterRejections;
  Evictions += O.Evictions;
  UnionsAccepted += O.UnionsAccepted;
  InstsRemoved += O.InstsRemoved;
  PreHoisted += O.PreHoisted;
  RegallocRounds += O.RegallocRounds;
  RangesSplit += O.RangesSplit;
  Functions += O.Functions;
}

/// The module of a unit: exactly one function.
static Function *singleFunction(Module &M, std::string &Error) {
  if (M.functions().size() != 1) {
    Error = "expected one function, got " +
            std::to_string(M.functions().size());
    return nullptr;
  }
  return M.functions()[0].get();
}

static bool sameExecution(const ExecutionResult &A, const ExecutionResult &B) {
  return A.Completed == B.Completed && A.ReturnValue == B.ReturnValue &&
         A.FinalMemory == B.FinalMemory;
}

bool computeReference(Unit &U, std::string &Error) {
  std::unique_ptr<Module> M = parseModule(U.Text, Error);
  if (!M)
    return false;
  Function *F = singleFunction(*M, Error);
  if (!F || !verifyFunction(*F, Error))
    return false;
  U.InputInsts = F->instructionCount();
  U.Ref = Interpreter(64, StepLimit).run(*F, U.Args);
  if (!U.Ref.Completed) {
    Error = "reference run did not terminate";
    return false;
  }
  return true;
}

bool checkOutput(const Unit &U, const std::string &Text, OutputCounts &Out,
                 std::string &Error) {
  std::unique_ptr<Module> M = parseModule(Text, Error);
  if (!M) {
    Error = "output does not parse: " + Error;
    return false;
  }
  Function *F = singleFunction(*M, Error);
  if (!F)
    return false;
  if (!verifyFunction(*F, Error)) {
    Error = "output rejected by the verifier: " + Error;
    return false;
  }
  uint64_t T0 = nowNs();
  ExecutionResult R = Interpreter(64, StepLimit).run(*F, U.Args);
  Out.InterpNs += nowNs() - T0;
  if (!sameExecution(R, U.Ref)) {
    Error = "output result differs from the input's (return " +
            std::to_string(R.ReturnValue) + " vs " +
            std::to_string(U.Ref.ReturnValue) + ")";
    return false;
  }
  Out.StaticCopies += F->staticCopyCount();
  Out.OutputInsts += F->instructionCount();
  for (const auto &B : F->blocks())
    for (const auto &I : B->insts())
      if (I->opcode() == Opcode::Spill || I->opcode() == Opcode::Reload)
        ++Out.SpillOps;
  Out.DynamicCopies += R.CopiesExecuted;
  Out.DynamicInsts += R.InstructionsExecuted;
  return true;
}

/// The input checks a compiling service makes before the pipeline.
static bool validInput(const Function &F, std::string &Error) {
  if (!verifyFunction(F, Error))
    return false;
  if (!isStrict(F)) {
    Error = "input is not strict";
    return false;
  }
  return true;
}

CompileOutput compileUntraced(const std::string &Text, const Config &Cfg) {
  CompileOutput Out;
  std::unique_ptr<Module> M = parseModule(Text, Out.Error);
  if (!M)
    return Out;
  Function *F = singleFunction(*M, Out.Error);
  if (!F || !validInput(*F, Out.Error))
    return Out;
  try {
    Out.Result = runPipeline(*F, Cfg.pipelineOptions());
  } catch (const std::exception &E) {
    Out.Error = E.what();
    return Out;
  }
  Out.Text = printFunction(*F);
  Out.Ok = true;
  return Out;
}

CompileOutput compileTraced(const std::string &Text, const Config &Cfg,
                            Tracer &T, unsigned UnitId, LayerCounts &Counts) {
  CompileOutput Out;
  const PipelineOptions Opts = Cfg.pipelineOptions();
  PipelineResult &R = Out.Result;
  R.Kind = PipelineKind::New;
  LayerCounts C;
  C.Functions = 1;

  SpanScope UnitSpan(T, "unit", UnitId);
  std::unique_ptr<Module> M;
  {
    SpanScope S(T, "ir.parse", UnitId);
    M = parseModule(Text, Out.Error);
  }
  if (!M)
    return Out;
  Function *F = singleFunction(*M, Out.Error);
  if (!F)
    return Out;
  C.InputInsts = F->instructionCount();
  {
    SpanScope S(T, "ir.verify", UnitId);
    if (!validInput(*F, Out.Error))
      return Out;
  }
  try {
    {
      SpanScope S(T, "analysis.split_edges", UnitId);
      R.CriticalEdgesSplit = splitCriticalEdges(*F);
    }
    std::optional<DominatorTree> DT;
    {
      SpanScope S(T, "analysis.dominators", UnitId);
      DT.emplace(*F, Opts.Analyses.Dominators);
    }
    SSABuildOptions BuildOpts;
    BuildOpts.FoldCopies = true;
    SSABuildStats Ssa;
    {
      SpanScope S(T, "ssa.build", UnitId);
      Ssa = buildSSA(*F, *DT, BuildOpts);
    }
    C.Phis = Ssa.PhisInserted;
    C.CopiesFolded = Ssa.CopiesFolded;
    C.SsaPeakBytes = Ssa.PeakBytes;
    R.PhisInserted = Ssa.PhisInserted;

    if (!Opts.Passes.empty()) {
      for (PassKind P : Opts.Passes) {
        const char *Name = P == PassKind::Sccp   ? "opt.sccp"
                           : P == PassKind::Adce ? "opt.adce"
                                                 : "opt.pre";
        PassStats PS;
        {
          SpanScope S(T, Name, UnitId);
          PS = runPassSequence(*F, {P});
        }
        C.InstsRemoved += PS.SccpCopies + PS.InstsRemoved + PS.PhisRemoved;
        C.PreHoisted += PS.PreHoisted;
      }
      {
        SpanScope S(T, "analysis.split_edges", UnitId);
        R.CriticalEdgesSplit += splitCriticalEdges(*F);
      }
      {
        SpanScope S(T, "opt.redominate", UnitId);
        DT.emplace(*F, Opts.Analyses.Dominators);
      }
    }

    std::optional<Liveness> LV;
    {
      SpanScope S(T, "analysis.liveness", UnitId);
      LV.emplace(*F, Opts.Analyses.Liveness);
    }
    C.LivenessBytes = LV->bytes();
    std::optional<FastCoalescer> Coalescer;
    {
      SpanScope S(T, "coalesce.partition", UnitId);
      Coalescer.emplace(*F, *DT, *LV, FastCoalescerOptions());
      Coalescer->computePartition();
    }
    {
      // Unions that survived into the partition: every accepted union
      // removes one location.
      SpanScope S(T, "bench.counters", UnitId);
      std::unordered_set<const Variable *> Locations;
      for (const auto &V : F->variables())
        Locations.insert(Coalescer->rep(V.get()));
      C.UnionsAccepted = F->numVariables() - Locations.size();
    }
    FastCoalesceStats Co;
    {
      SpanScope S(T, "coalesce.rewrite", UnitId);
      Co = Coalescer->rewrite();
    }
    C.CoalescePeakBytes = Co.PeakBytes;
    C.CopiesInserted = Co.CopiesInserted;
    C.FilterRejections = Co.FilterRejections;
    C.Evictions = Co.ForestEvictions + Co.LocalEvictions;
    R.StaticCopies = F->staticCopyCount();

    if (Opts.Machine) {
      SpillRewriteOptions SR;
      SR.Machine = *Opts.Machine;
      SpillRewriteResult SRR;
      {
        SpanScope S(T, "regalloc.spill_rewrite", UnitId);
        SRR = insertSpillCode(*F, SR);
      }
      R.Allocated = true;
      R.RegistersUsed = SRR.Alloc.RegistersUsed;
      R.SpillStores = SRR.SpillStores;
      R.Reloads = SRR.Reloads;
      R.SpillSlots = SRR.SlotsUsed;
      R.RangesSplit = SRR.RangesSplit;
      R.RegallocIterations = SRR.Iterations;
      C.RegallocRounds = SRR.Iterations;
      C.RangesSplit = SRR.RangesSplit;
    }
  } catch (const std::exception &E) {
    Out.Error = E.what();
    return Out;
  }
  {
    SpanScope S(T, "ir.print", UnitId);
    Out.Text = printFunction(*F);
  }
  Out.Ok = true;
  Counts.add(C);
  return Out;
}

bool sameOutput(const CompileOutput &A, const CompileOutput &B) {
  const PipelineResult &X = A.Result, &Y = B.Result;
  return A.Ok && B.Ok && A.Text == B.Text &&
         X.StaticCopies == Y.StaticCopies &&
         X.PhisInserted == Y.PhisInserted &&
         X.CriticalEdgesSplit == Y.CriticalEdgesSplit &&
         X.Allocated == Y.Allocated && X.RegistersUsed == Y.RegistersUsed &&
         X.SpillStores == Y.SpillStores && X.Reloads == Y.Reloads &&
         X.SpillSlots == Y.SpillSlots && X.RangesSplit == Y.RangesSplit &&
         X.RegallocIterations == Y.RegallocIterations;
}

//===-- Tracer ------------------------------------------------------------===//

void Tracer::addSelfTimes(std::map<std::string, uint64_t> &Into) const {
  std::vector<uint64_t> ChildNs(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildNs[S.Parent] += S.End - S.Start;
  for (size_t I = 0; I != Spans.size(); ++I) {
    uint64_t Dur = Spans[I].End - Spans[I].Start;
    Into[Spans[I].Name] += Dur > ChildNs[I] ? Dur - ChildNs[I] : 0;
  }
}

bool Tracer::writeJson(const std::string &Path) const {
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out)
    return false;
  uint64_t Epoch = Spans.empty() ? 0 : Spans.front().Start;
  std::fputs("{\"traceEvents\":[", Out);
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(Out,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%d,\"unit\":%u}}",
                 I ? "," : "", S.Name, (S.Start - Epoch) / 1e3,
                 (S.End - S.Start) / 1e3, I, S.Parent, S.UnitId);
  }
  std::fputs("\n]}\n", Out);
  return std::fclose(Out) == 0;
}

} // namespace perfbench
