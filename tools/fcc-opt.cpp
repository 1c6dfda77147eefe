//===- tools/fcc-opt.cpp - Command-line driver ----------------------------===//
//
// Standalone driver: read a textual-IR file, run one of the paper's
// SSA-round-trip pipelines over every function, optionally clean up and
// execute, and print the result.
//
//   fcc-opt FILE.ir [options]
//
//   --pipeline=new|standard|briggs|briggs*   conversion to run (default new)
//   --analysis=fast|legacy|dsu+sparse|chk+dense|dsu+dense|chk+sparse
//                     dominator / liveness implementations backing the
//                     pipeline (default fast = dsu+sparse); output is
//                     byte-identical across choices, only build time moves
//   --machine=uniformN|dsp|embedded
//                     run the register allocator after the pipeline: color
//                     against that machine's banks, inserting spill/reload
//                     code until allocation succeeds
//   --passes=SEQ      comma-separated optimization passes (sccp, adce, pre)
//                     run on the SSA form before coalescing; unknown names
//                     are rejected listing the known passes
//   --ssa-only        stop in SSA form (pruned, copies folded) and print it
//   --no-fold         build SSA without copy folding (with --ssa-only)
//   --copyprop        run local copy propagation after the pipeline
//   --dce             run dead-code elimination after the pipeline
//   --strict          insert entry initializations for non-strict inputs
//   --check           validate the coalescer's partition with the
//                     independent CoalescingChecker (new pipeline)
//   --trace           narrate the coalescer's decisions (new pipeline)
//   --trace=PATH      write a Chrome trace (chrome://tracing / Perfetto)
//                     of every pipeline phase to PATH
//   --stats           print per-function and per-phase statistics
//   --run ARGS...     execute each function on the integer ARGS
//
//===----------------------------------------------------------------------===//

#include "analysis/CFGUtils.h"
#include "analysis/DominatorTree.h"
#include "analysis/Liveness.h"
#include "coalesce/CoalescingChecker.h"
#include "coalesce/FastCoalescer.h"
#include "interp/Interpreter.h"
#include "ir/Function.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Module.h"
#include "ir/Verifier.h"
#include "opt/CopyPropagation.h"
#include "opt/DeadCodeElim.h"
#include "opt/PassManager.h"
#include "pipeline/Pipeline.h"
#include "regalloc/SpillRewriter.h"
#include "ssa/SSABuilder.h"
#include "support/ArgParse.h"
#include "support/Stats.h"
#include "support/TraceWriter.h"

#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

using namespace fcc;

namespace {

struct DriverOptions {
  std::string InputPath;
  std::optional<PipelineKind> Pipeline = PipelineKind::New;
  AnalysisStrategy Analyses;
  std::optional<MachineModel> Machine;
  std::vector<PassKind> Passes;
  bool SsaOnly = false;
  bool NoFold = false;
  bool CopyProp = false;
  bool Dce = false;
  bool Strict = false;
  bool Check = false;
  bool Trace = false;
  bool Stats = false;
  bool Execute = false;
  std::string TracePath;
  std::vector<int64_t> RunArgs;
};

/// Prints the usage: for --help to stdout with exit code 0, else to stderr
/// with 2.
int usage(const char *Argv0, bool Help = false) {
  std::fprintf(Help ? stdout : stderr,
               "usage: %s FILE.ir [--pipeline=new|standard|briggs|briggs*]\n"
               "       [--analysis=fast|legacy|dsu+sparse|chk+dense|"
               "dsu+dense|chk+sparse]\n"
               "       [--machine=uniformN|dsp|embedded] "
               "[--passes=sccp,adce,pre]\n"
               "       [--ssa-only] [--no-fold] [--copyprop] [--dce] "
               "[--strict] [--check] [--trace] [--trace=PATH] [--stats]\n"
               "       [--run ARGS...]\n",
               Argv0);
  return Help ? 0 : 2;
}

bool parseArgs(int Argc, char **Argv, DriverOptions &Opts) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--ssa-only")
      Opts.SsaOnly = true;
    else if (Arg == "--no-fold")
      Opts.NoFold = true;
    else if (Arg == "--copyprop")
      Opts.CopyProp = true;
    else if (Arg == "--dce")
      Opts.Dce = true;
    else if (Arg == "--strict")
      Opts.Strict = true;
    else if (Arg == "--check")
      Opts.Check = true;
    else if (Arg == "--trace")
      Opts.Trace = true;
    else if (Arg.rfind("--trace=", 0) == 0)
      Opts.TracePath = Arg.substr(std::strlen("--trace="));
    else if (Arg == "--stats")
      Opts.Stats = true;
    else if (Arg.rfind("--pipeline=", 0) == 0) {
      std::string Name = Arg.substr(std::strlen("--pipeline="));
      if (Name == "new")
        Opts.Pipeline = PipelineKind::New;
      else if (Name == "standard")
        Opts.Pipeline = PipelineKind::Standard;
      else if (Name == "briggs")
        Opts.Pipeline = PipelineKind::Briggs;
      else if (Name == "briggs*")
        Opts.Pipeline = PipelineKind::BriggsImproved;
      else {
        std::fprintf(stderr, "unknown pipeline '%s'\n", Name.c_str());
        return false;
      }
    } else if (Arg.rfind("--analysis=", 0) == 0) {
      std::string Name = Arg.substr(std::strlen("--analysis="));
      if (!parseAnalysisStrategy(Name, Opts.Analyses)) {
        std::fprintf(stderr, "unknown analysis strategy '%s'\n", Name.c_str());
        return false;
      }
    } else if (Arg.rfind("--machine=", 0) == 0) {
      std::string Name = Arg.substr(std::strlen("--machine="));
      MachineModel MM;
      if (!parseMachineModel(Name, MM)) {
        std::fprintf(stderr, "unknown machine model '%s'\n", Name.c_str());
        return false;
      }
      Opts.Machine = std::move(MM);
    } else if (Arg.rfind("--passes=", 0) == 0) {
      std::string Name = Arg.substr(std::strlen("--passes="));
      std::string BadToken;
      if (!parsePassSequence(Name, Opts.Passes, &BadToken)) {
        std::fprintf(stderr, "unknown pass '%s' (known passes: %s)\n",
                     BadToken.c_str(), knownPassNames());
        return false;
      }
    } else if (Arg == "--run") {
      Opts.Execute = true;
      for (++I; I < Argc; ++I) {
        int64_t Value = 0;
        if (!parseInt64Arg(Argv[I], Value)) {
          std::fprintf(stderr, "bad --run argument '%s'\n", Argv[I]);
          return false;
        }
        Opts.RunArgs.push_back(Value);
      }
    } else if (!Arg.empty() && Arg[0] != '-' && Opts.InputPath.empty()) {
      Opts.InputPath = Arg;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", Arg.c_str());
      return false;
    }
  }
  return !Opts.InputPath.empty();
}

} // namespace

int main(int Argc, char **Argv) {
  if (wantsHelp(Argc, Argv))
    return usage(Argv[0], /*Help=*/true);
  DriverOptions Opts;
  if (!parseArgs(Argc, Argv, Opts))
    return usage(Argv[0]);
  if (Opts.Check && (Opts.SsaOnly || Opts.Pipeline != PipelineKind::New)) {
    std::fprintf(stderr,
                 "--check validates a coalescing partition; it requires "
                 "--pipeline=new (without --ssa-only)\n");
    return 2;
  }
  if (Opts.Machine && Opts.SsaOnly) {
    std::fprintf(stderr, "--machine allocates phi-free code; it cannot be "
                         "combined with --ssa-only\n");
    return 2;
  }
  if (!Opts.Passes.empty() && (Opts.Pipeline == PipelineKind::Briggs ||
                               Opts.Pipeline == PipelineKind::BriggsImproved)) {
    std::fprintf(stderr,
                 "--passes is not supported with the Briggs pipelines "
                 "(live-range webs assume unoptimized SSA)\n");
    return 2;
  }

  std::ifstream In(Opts.InputPath);
  if (!In) {
    std::fprintf(stderr, "cannot open '%s'\n", Opts.InputPath.c_str());
    return 1;
  }
  std::stringstream Buffer;
  Buffer << In.rdbuf();

  std::string Error;
  std::unique_ptr<Module> M = parseModule(Buffer.str(), Error);
  if (!M) {
    std::fprintf(stderr, "%s: %s\n", Opts.InputPath.c_str(), Error.c_str());
    return 1;
  }

  // Observability sinks: a stats registry behind --stats, a Chrome-trace
  // writer behind --trace=PATH. Either one instruments the pipeline runs.
  std::optional<StatsRegistry> Registry;
  if (Opts.Stats)
    Registry.emplace();
  std::optional<TraceWriter> TraceJson;
  if (!Opts.TracePath.empty())
    TraceJson.emplace();
  Instrumentation Instr;
  Instr.Stats = Registry ? &*Registry : nullptr;
  Instr.Trace = TraceJson ? &*TraceJson : nullptr;
  Instr.Unit = Opts.InputPath;
  const bool Observe = Instr.active();

  for (const auto &FPtr : M->functions()) {
    Function &F = *FPtr;
    if (Opts.Strict)
      enforceStrictness(F);
    if (!verifyFunction(F, Error)) {
      std::fprintf(stderr, "@%s does not verify: %s\n", F.name().c_str(),
                   Error.c_str());
      return 1;
    }
    if (!isStrict(F)) {
      std::fprintf(stderr,
                   "@%s is not strict (a use may precede every definition); "
                   "re-run with --strict\n",
                   F.name().c_str());
      return 1;
    }

    if (Opts.SsaOnly) {
      splitCriticalEdges(F);
      DominatorTree DT(F, Opts.Analyses.Dominators);
      SSABuildOptions Build;
      Build.FoldCopies = !Opts.NoFold;
      SSABuildStats Stats = buildSSA(F, DT, Build);
      if (Opts.Stats)
        std::printf("; @%s: %u phis, %u copies folded\n", F.name().c_str(),
                    Stats.PhisInserted, Stats.CopiesFolded);
      if (!Opts.Passes.empty()) {
        Instr.Function = F.name();
        PassManagerOptions PM;
        PM.Instr = Observe ? &Instr : nullptr;
        PassStats PS = runPassSequence(F, Opts.Passes, PM);
        if (Opts.Stats)
          std::printf("; @%s: passes folded %u consts, forwarded %u copies, "
                      "removed %u insts + %u phis, hoisted %u\n",
                      F.name().c_str(), PS.SccpConstants, PS.SccpCopies,
                      PS.InstsRemoved, PS.PhisRemoved, PS.PreHoisted);
      }
    } else if (Opts.Pipeline == PipelineKind::New &&
               (Opts.Trace || Opts.Check)) {
      // Expanded so the coalescer can narrate and the partition can be
      // audited before it rewrites anything.
      splitCriticalEdges(F);
      std::optional<DominatorTree> DT;
      DT.emplace(F, Opts.Analyses.Dominators);
      SSABuildOptions Build;
      Build.FoldCopies = true;
      buildSSA(F, *DT, Build);
      if (!Opts.Passes.empty()) {
        // Same stage order as the pipeline: optimize the SSA form, then
        // re-split edges and rebuild dominance for the coalescer.
        Instr.Function = F.name();
        PassManagerOptions PM;
        PM.Instr = Observe ? &Instr : nullptr;
        runPassSequence(F, Opts.Passes, PM);
        splitCriticalEdges(F);
        DT.emplace(F, Opts.Analyses.Dominators);
      }
      Liveness LV(F, Opts.Analyses.Liveness);
      FastCoalescerOptions Coalesce;
      if (Opts.Trace)
        Coalesce.Trace = stderr;
      Instr.Function = F.name();
      Coalesce.Instr = Observe ? &Instr : nullptr;
      FastCoalescer Coalescer(F, *DT, LV, Coalesce);
      Coalescer.computePartition();
      if (Opts.Check) {
        std::string CheckError;
        if (!checkCoalescing(
                F, LV, [&](const Variable *V) { return Coalescer.rep(V); },
                CheckError)) {
          std::fprintf(stderr, "@%s: coalescing check FAILED: %s\n",
                       F.name().c_str(), CheckError.c_str());
          return 1;
        }
        if (Opts.Stats)
          std::printf("; @%s: coalescing check passed\n", F.name().c_str());
      }
      Coalescer.rewrite();
      if (Opts.Machine) {
        // The expanded path ends where the pipeline would, so allocation
        // runs on the same phi-free code the one-shot path produces.
        SpillRewriteOptions SR;
        SR.Machine = *Opts.Machine;
        try {
          SpillRewriteResult R = insertSpillCode(F, SR);
          if (Opts.Stats)
            std::printf("; @%s: %u registers, %u spill stores, %u reloads, "
                        "%u ranges split, %u regalloc iterations\n",
                        F.name().c_str(), R.Alloc.RegistersUsed, R.SpillStores,
                        R.Reloads, R.RangesSplit, R.Iterations);
        } catch (const std::exception &E) {
          std::fprintf(stderr, "@%s: %s\n", F.name().c_str(), E.what());
          return 1;
        }
      }
    } else {
      Instr.Function = F.name();
      PipelineOptions Pipe;
      Pipe.Kind = *Opts.Pipeline;
      Pipe.Analyses = Opts.Analyses;
      Pipe.Machine = Opts.Machine ? &*Opts.Machine : nullptr;
      Pipe.Passes = Opts.Passes;
      Pipe.Instr = Observe ? &Instr : nullptr;
      PipelineResult Result;
      try {
        Result = runPipeline(F, Pipe);
      } catch (const std::exception &E) {
        std::fprintf(stderr, "@%s: %s\n", F.name().c_str(), E.what());
        return 1;
      }
      if (Opts.Stats) {
        std::printf("; @%s (%s): %u us, %u phis, %u copies left, peak %zu "
                    "bytes\n",
                    F.name().c_str(), pipelineName(*Opts.Pipeline),
                    static_cast<unsigned>(Result.TimeMicros),
                    Result.PhisInserted, Result.StaticCopies,
                    Result.PeakBytes);
        if (Result.Allocated)
          std::printf("; @%s: %u registers, %u spill stores, %u reloads, "
                      "%u ranges split, %u regalloc iterations\n",
                      F.name().c_str(), Result.RegistersUsed,
                      Result.SpillStores, Result.Reloads, Result.RangesSplit,
                      Result.RegallocIterations);
        if (!Result.Phases.empty()) {
          std::printf(";   phases:");
          for (const PhaseSample &P : Result.Phases)
            std::printf(" %s %lluus", P.Name,
                        static_cast<unsigned long long>(P.Micros));
          std::printf("\n");
        }
      }
    }

    if (Opts.CopyProp) {
      unsigned Retargeted = propagateCopiesLocally(F);
      if (Opts.Stats)
        std::printf("; @%s: copy propagation retargeted %u uses\n",
                    F.name().c_str(), Retargeted);
    }
    if (Opts.Dce) {
      unsigned Removed = eliminateDeadCode(F);
      if (Opts.Stats)
        std::printf("; @%s: DCE removed %u instructions\n", F.name().c_str(),
                    Removed);
    }

    if (!verifyFunction(F, Error)) {
      std::fprintf(stderr, "internal error: output does not verify: %s\n",
                   Error.c_str());
      return 1;
    }
    std::fputs(printFunction(F).c_str(), stdout);
    std::fputc('\n', stdout);

    if (Opts.Execute) {
      ExecutionResult R = Interpreter().run(F, Opts.RunArgs);
      if (!R.Completed) {
        std::printf("; @%s: hit the step limit\n", F.name().c_str());
      } else if (Opts.Machine) {
        std::printf("; @%s(...) = %lld  (%llu instructions, %llu copies, "
                    "%llu spill ops)\n",
                    F.name().c_str(),
                    static_cast<long long>(R.ReturnValue),
                    static_cast<unsigned long long>(R.InstructionsExecuted),
                    static_cast<unsigned long long>(R.CopiesExecuted),
                    static_cast<unsigned long long>(R.SpillOpsExecuted));
      } else {
        std::printf("; @%s(...) = %lld  (%llu instructions, %llu copies)\n",
                    F.name().c_str(),
                    static_cast<long long>(R.ReturnValue),
                    static_cast<unsigned long long>(R.InstructionsExecuted),
                    static_cast<unsigned long long>(R.CopiesExecuted));
      }
    }
  }

  if (Registry) {
    // The aggregated tables, as IR comments so the output stays parseable.
    std::string Tables =
        renderStats(Registry->phases(), Registry->counters(),
                    /*IncludeTimings=*/true);
    size_t Pos = 0;
    while (Pos < Tables.size()) {
      size_t Eol = Tables.find('\n', Pos);
      std::printf("; %.*s\n", static_cast<int>(Eol - Pos), &Tables[Pos]);
      Pos = Eol + 1;
    }
  }
  if (TraceJson) {
    std::string TraceError;
    if (!TraceJson->writeFile(Opts.TracePath, TraceError)) {
      std::fprintf(stderr, "%s\n", TraceError.c_str());
      return 1;
    }
  }
  return 0;
}
