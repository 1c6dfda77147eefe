//===- tools/fcc-bench.cpp - Unified benchmark driver ---------------------===//
//
// One driver for the repository's performance story: named suites of
// benchmarks over the paper pipelines and the allocation-lean support
// structures, measured with an explicit warmup phase and median/MAD over
// repetitions, emitted as a fixed-schema JSON report (BENCH.json) that
// tools/bench_compare.py diffs against bench/baseline.json in CI.
//
//   fcc-bench --suite=ci|smoke [options]
//
//   --suite=NAME   which suite to run (required): 'ci' is the perf gate's
//                  workload, 'smoke' a seconds-long variant for ctest
//   --out=PATH     write the JSON report to PATH ('-' for stdout, default)
//   --warmup=N     override the suite's warmup iterations
//   --repeats=N    override the suite's timed repetitions
//   --quality      measure code quality instead of speed: run every
//                  pipeline x machine configuration over the suite's
//                  routines, allocate registers with spill rewriting,
//                  execute the result, and report the deterministic
//                  quality counters (schema fcc-quality/1 below)
//   --list         print the suite's benchmark names and exit
//
// Schema (fcc-bench/1): ns_median and ns_mad are the run-to-run unstable
// fields. instructions_retired is emitted only when hardware counters are
// actually available (perf_event_open can be denied in containers and CI;
// see the benchmarking notes in DESIGN.md) — absent means "not measured",
// and bench_compare.py treats the field as optional.
//
//   {"schema": "fcc-bench/1", "suite": S, "warmup": W, "repeats": R,
//    "benchmarks": [{"name", "workload", "reps", "ns_median", "ns_mad",
//                    "peak_bytes"[, "instructions_retired"]}, ...]}
//
// Schema (fcc-quality/1): every field is a pure function of the corpus —
// no timings — so the CI quality gate compares rows exactly by default.
// "diverged" counts routines whose post-allocation execution differed from
// the unoptimized reference (must be 0); "alloc_failures" counts routines
// the spill rewriter could not converge on (must be 0).
//
//   {"schema": "fcc-quality/1", "suite": S, "routines": N,
//    "rows": [{"name", "pipeline", "machine"[, "passes"], "functions",
//              "static_copies", "spill_stores", "reloads", "spill_slots",
//              "ranges_split", "max_registers_used", "dynamic_copies",
//              "dynamic_spill_ops", "diverged", "alloc_failures"}, ...]}
//
// Optimized-pipeline rows carry a "passes" field (the sequence run before
// coalescing, e.g. "sccp,adce,pre"); base rows omit it, keeping their
// bytes identical to the pre-pass-layer schema.
//
// Exit status: 0 ok (quality mode: and no divergence/allocation failure),
// 2 usage/setup error.
//
//===----------------------------------------------------------------------===//

#include "analysis/CFGUtils.h"
#include "analysis/DominatorTree.h"
#include "analysis/Liveness.h"
#include "baseline/InterferenceGraph.h"
#include "coalesce/DominanceForest.h"
#include "coalesce/FastCoalescer.h"
#include "interp/Interpreter.h"
#include "ir/BasicBlock.h"
#include "ir/Function.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Module.h"
#include "pipeline/Pipeline.h"
#include "regalloc/SpillRewriter.h"
#include "server/ResultCache.h"
#include "service/CompilationService.h"
#include "service/WorkUnit.h"
#include "ssa/SSABuilder.h"
#include "support/Arena.h"
#include "support/ArgParse.h"
#include "support/PerfCounters.h"
#include "support/SparseSet.h"
#include "workload/KernelSuite.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

using namespace fcc;

namespace {

/// Workload knobs one suite fixes for every benchmark.
struct SuiteParams {
  unsigned Warmup;
  unsigned Repeats;
  unsigned PaperRoutines; ///< Prefix of paperSuite() the pipeline runs use.
  unsigned GenBudget;     ///< Generator size budget for structure runs.
};

/// One benchmark: Run performs a single iteration and returns the
/// deterministic byte footprint of the structures it built. Setup, when
/// set, runs before every iteration outside the clock (for rows whose
/// iteration consumes its input).
struct Benchmark {
  std::string Name;
  std::string Workload;
  std::function<size_t()> Run;
  std::function<void()> Setup = {};
};

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t medianOf(std::vector<uint64_t> Samples) {
  std::sort(Samples.begin(), Samples.end());
  return Samples[Samples.size() / 2];
}

/// Median absolute deviation: the robust spread the comparator reports
/// alongside the median (a run with high MAD is too noisy to gate on).
uint64_t madOf(const std::vector<uint64_t> &Samples, uint64_t Median) {
  std::vector<uint64_t> Dev;
  Dev.reserve(Samples.size());
  for (uint64_t S : Samples)
    Dev.push_back(S > Median ? S - Median : Median - S);
  return medianOf(std::move(Dev));
}

/// A generated function taken through critical-edge splitting and SSA
/// construction, with the analyses the structure benchmarks consume.
struct SSAFixture {
  std::unique_ptr<Module> M;
  Function *F = nullptr;
  std::unique_ptr<DominatorTree> DT;
  std::unique_ptr<Liveness> LV;

  explicit SSAFixture(unsigned SizeBudget, uint64_t Seed) {
    M = std::make_unique<Module>();
    GeneratorOptions Opts;
    Opts.Seed = Seed;
    Opts.SizeBudget = SizeBudget;
    Opts.NumVars = 14;
    F = generateProgram(*M, "bench", Opts);
    splitCriticalEdges(*F);
    DT = std::make_unique<DominatorTree>(*F);
    SSABuildOptions BuildOpts;
    BuildOpts.FoldCopies = true;
    buildSSA(*F, *DT, BuildOpts);
    LV = std::make_unique<Liveness>(*F);
  }
};

std::string scaleTag(const SuiteParams &P) {
  return "paper" + std::to_string(P.PaperRoutines) + "/gen" +
         std::to_string(P.GenBudget);
}

/// Builds the benchmark list for \p P. Every suite runs the same names so
/// baselines stay comparable; only the workload sizes differ.
std::vector<Benchmark> buildSuite(const SuiteParams &P) {
  std::vector<Benchmark> Benches;
  std::string Tag = scaleTag(P);

  // Table 2's clock: the paper pipelines end to end (materialize + compile)
  // over a deterministic prefix of the paper suite.
  auto AddPipeline = [&](const char *Name, PipelineKind Kind) {
    auto Specs =
        std::make_shared<std::vector<RoutineSpec>>(paperSuite(P.PaperRoutines));
    Benches.push_back({Name, Tag, [Specs, Kind]() -> size_t {
                         size_t Peak = 0;
                         PipelineOptions Opts;
                         Opts.Kind = Kind;
                         for (const RoutineSpec &Spec : *Specs) {
                           auto M = Spec.materialize();
                           for (auto &F : M->functions()) {
                             PipelineResult R = runPipeline(*F, Opts);
                             Peak = std::max(Peak, R.PeakBytes);
                           }
                         }
                         return Peak;
                       }});
  };
  AddPipeline("pipeline/new", PipelineKind::New);
  AddPipeline("pipeline/standard", PipelineKind::Standard);
  AddPipeline("pipeline/briggs_improved", PipelineKind::BriggsImproved);

  // The allocator's layer alone: insertSpillCode on uniform4 over the
  // paper prefix's functions, already compiled by New. The rewrite mutates
  // its input, so Setup compiles fresh copies before every iteration,
  // outside the clock. The byte figure is the spill code inserted.
  {
    auto Specs =
        std::make_shared<std::vector<RoutineSpec>>(paperSuite(P.PaperRoutines));
    auto Work = std::make_shared<std::vector<std::unique_ptr<Module>>>();
    Benches.push_back(
        {"regalloc/uniform4", Tag,
         [Work]() -> size_t {
           SpillRewriteOptions Opts;
           Opts.Machine = uniformMachine(4);
           size_t SpillOps = 0;
           for (const auto &M : *Work)
             for (const auto &F : M->functions()) {
               SpillRewriteResult R = insertSpillCode(*F, Opts);
               SpillOps += R.SpillStores + R.Reloads;
             }
           return SpillOps * sizeof(Instruction);
         },
         [Specs, Work] {
           Work->clear();
           for (const RoutineSpec &Spec : *Specs) {
             Work->push_back(Spec.materialize());
             for (const auto &F : Work->back()->functions())
               runPipeline(*F, PipelineKind::New);
           }
         }});
  }

  // The IR reader alone: parseModule over the paper prefix's printed text,
  // printed once at build time. Setup frees the previous iteration's
  // modules, so their destruction stays outside the clock. The byte figure
  // is the text read.
  {
    auto Texts = std::make_shared<std::vector<std::string>>();
    for (const RoutineSpec &Spec : paperSuite(P.PaperRoutines))
      Texts->push_back(printModule(*Spec.materialize()));
    auto Parsed = std::make_shared<std::vector<std::unique_ptr<Module>>>();
    Benches.push_back(
        {"ir/parse", Tag,
         [Texts, Parsed]() -> size_t {
           size_t Bytes = 0;
           for (const std::string &Text : *Texts) {
             std::string Error;
             Parsed->push_back(parseModule(Text, Error));
             if (!Parsed->back()) {
               std::fprintf(stderr, "fcc-bench: ir/parse: %s\n", Error.c_str());
               std::exit(2);
             }
             Bytes += Text.size();
           }
           return Bytes;
         },
         [Parsed] { Parsed->clear(); }});
  }

  // The retrofitted per-function analyses and structures, each over one
  // generated SSA function (guards Tables 1 and 3's structure costs).
  auto Fix = std::make_shared<SSAFixture>(P.GenBudget, /*Seed=*/77);

  Benches.push_back({"liveness/solve", Tag, [Fix]() -> size_t {
                       Liveness LV(*Fix->F);
                       return LV.bytes();
                     }});

  Benches.push_back({"domtree/build", Tag, [Fix]() -> size_t {
                       DominatorTree DT(*Fix->F);
                       return DT.bytes();
                     }});

  Benches.push_back({"coalesce/partition", Tag, [Fix]() -> size_t {
                       FastCoalescer Co(*Fix->F, *Fix->DT, *Fix->LV);
                       Co.computePartition();
                       return Co.stats().PeakBytes;
                     }});

  {
    // One forest member per block: the worst-case single-set forest.
    auto Members = std::make_shared<std::vector<ForestMember>>();
    for (const auto &B : Fix->F->blocks())
      Members->push_back(
          {Fix->F->variable(B->id() % Fix->F->numVariables()), B.get(), 1});
    Benches.push_back({"domforest/build", Tag, [Fix, Members]() -> size_t {
                         DominanceForest DF(*Members, *Fix->DT);
                         return DF.bytes();
                       }});
  }

  Benches.push_back({"igraph/adjacency_build", Tag, [Fix]() -> size_t {
                       InterferenceGraph::BuildOptions Opts;
                       Opts.BuildAdjacencyLists = true;
                       InterferenceGraph G(*Fix->F, *Fix->LV, Opts);
                       return G.bytes();
                     }});

  // The daemon's serving costs: one batch of the paper workload through a
  // cache-attached service, cold (fresh cache every iteration — every unit
  // parses, verifies, compiles and publishes) versus warm (a persistent
  // cache pre-warmed once — every unit is an exact-text hit that skips
  // parsing entirely). Their ratio is the headline warm/cold latency
  // improvement EXPERIMENTS.md tracks.
  {
    auto Units = std::make_shared<std::vector<WorkUnit>>();
    for (const RoutineSpec &Spec : paperSuite(P.PaperRoutines))
      Units->push_back(Spec.Source.empty()
                           ? WorkUnit::fromGenerator(Spec.Name, Spec.GenOpts)
                           : WorkUnit::fromSource(Spec.Name, Spec.Source));
    ServiceOptions SO;
    SO.Jobs = 1; // Latency, not throughput: keep the pool out of the tail.

    Benches.push_back({"server/cold_qps", Tag, [Units, SO]() -> size_t {
                         ResultCache Cache(
                             ResultCache::Options{64u << 20, /*Shards=*/4});
                         ServiceOptions Opts = SO;
                         Opts.Cache = &Cache;
                         CompilationService Service(Opts);
                         BatchReport R = Service.run(*Units);
                         return Cache.occupancy().Bytes + R.totals().Failed;
                       }});

    auto WarmCache = std::make_shared<ResultCache>(
        ResultCache::Options{64u << 20, /*Shards=*/4});
    {
      ServiceOptions Opts = SO;
      Opts.Cache = WarmCache.get();
      CompilationService(Opts).run(*Units); // Pre-warm once, at build time.
    }
    Benches.push_back({"server/warm_qps", Tag,
                       [Units, SO, WarmCache]() -> size_t {
                         ServiceOptions Opts = SO;
                         Opts.Cache = WarmCache.get();
                         CompilationService Service(Opts);
                         BatchReport R = Service.run(*Units);
                         return R.totals().Functions;
                       }});
  }

  // Micro: arena churn in the coalescer's merge pattern — many short
  // arrays, wholesale reset — and sparse-set churn in the scratch-map
  // pattern. Sized off GenBudget so suites scale together.
  unsigned Micro = P.GenBudget * 64;
  Benches.push_back(
      {"arena/churn", "iters" + std::to_string(Micro), [Micro]() -> size_t {
         Arena A(4096);
         for (unsigned Round = 0; Round != 8; ++Round) {
           for (unsigned I = 0; I != Micro; ++I) {
             unsigned *P = A.allocateArray<unsigned>((I % 13) + 2);
             P[0] = I; // touch the memory
           }
           A.reset();
         }
         return A.bytesReserved();
       }});
  Benches.push_back(
      {"sparseset/churn", "iters" + std::to_string(Micro), [Micro]() -> size_t {
         SparseSet S;
         S.resizeUniverse(1024);
         unsigned Hits = 0;
         for (unsigned Round = 0; Round != 8; ++Round) {
           for (unsigned I = 0; I != Micro; ++I) {
             S.insert((I * 7) & 1023);
             Hits += S.contains((I * 13) & 1023);
           }
           S.clear();
         }
         // Fold Hits in so the loop cannot be optimized out.
         return S.bytes() + (Hits & 1);
       }});

  return Benches;
}

/// One pipeline x machine configuration's quality aggregate over the
/// suite (schema fcc-quality/1). Every field is deterministic.
struct QualityRow {
  std::string Name;     ///< "quality/<pipeline>[+<passes>]/<machine>"
  std::string Pipeline; ///< pipelineName()
  std::string Machine;  ///< canonical MachineModel name
  std::string Passes;   ///< passSequenceName(); "" for the base rows
  unsigned Functions = 0;
  uint64_t StaticCopies = 0;
  uint64_t SpillStores = 0;
  uint64_t Reloads = 0;
  uint64_t SpillSlots = 0;
  uint64_t RangesSplit = 0;
  uint64_t MaxRegistersUsed = 0;
  uint64_t DynamicCopies = 0;
  uint64_t DynamicSpillOps = 0;
  /// Routines whose post-allocation execution differed from the
  /// unoptimized reference (return value or completion). Must be 0.
  unsigned Diverged = 0;
  /// Routines the spill rewriter failed to converge on. Must be 0.
  unsigned AllocFailures = 0;
};

/// Runs every pipeline x machine configuration over \p Specs and fills one
/// QualityRow per configuration. The reference execution (unoptimized
/// materialization on the routine's fixed Table 4 arguments) is computed
/// once per routine and compared against every configuration's output.
std::vector<QualityRow> runQualitySuite(const std::vector<RoutineSpec> &Specs) {
  const PipelineKind Kinds[] = {PipelineKind::New, PipelineKind::Standard,
                                PipelineKind::BriggsImproved};
  const char *Machines[] = {"uniform2", "uniform4", "uniform8", "dsp"};

  struct Variant {
    PipelineKind Kind;
    const char *Machine;
    const char *Passes; // passSequenceName spelling; "" = no opt stage
  };
  std::vector<Variant> Variants;
  for (PipelineKind Kind : Kinds)
    for (const char *MachineName : Machines)
      Variants.push_back({Kind, MachineName, ""});
  // Optimized-pipeline rows: pin how the pass layer shifts copy and spill
  // counts. The sccp,adce vs sccp,adce,pre vs pre,sccp,adce trio isolates
  // PRE's contribution and the phase-ordering effect on the same machine;
  // the uniform2 and dsp rows measure how PRE's extended live ranges feed
  // spill pressure and banked allocation; the Standard row keeps the
  // cross-pipeline comparison honest over identical optimized input. The
  // Briggs pipelines reject passes (their live-range webs assume
  // unoptimized SSA), so no optimized Briggs rows exist.
  const Variant OptVariants[] = {
      {PipelineKind::New, "uniform8", "sccp,adce"},
      {PipelineKind::New, "uniform8", "sccp,adce,pre"},
      {PipelineKind::New, "uniform8", "pre,sccp,adce"},
      {PipelineKind::New, "uniform2", "sccp,adce,pre"},
      {PipelineKind::New, "dsp", "sccp,adce,pre"},
      {PipelineKind::Standard, "uniform8", "sccp,adce,pre"},
  };
  Variants.insert(Variants.end(), std::begin(OptVariants),
                  std::end(OptVariants));

  // Reference behavior, once per routine x function.
  struct RefExec {
    bool Completed;
    int64_t ReturnValue;
  };
  std::vector<std::vector<RefExec>> Refs(Specs.size());
  Interpreter Interp;
  for (size_t S = 0; S != Specs.size(); ++S) {
    auto M = Specs[S].materialize();
    for (auto &F : M->functions()) {
      ExecutionResult R = Interp.run(*F, Specs[S].Args);
      Refs[S].push_back({R.Completed, R.ReturnValue});
    }
  }

  std::vector<QualityRow> Rows;
  for (const Variant &V : Variants) {
    MachineModel MM;
    if (!parseMachineModel(V.Machine, MM))
      continue; // Unreachable: the names above are all canonical.
    std::vector<PassKind> Passes;
    if (!parsePassSequence(V.Passes, Passes))
      continue; // Unreachable: the sequences above are all canonical.
    QualityRow Row;
    Row.Pipeline = pipelineName(V.Kind);
    Row.Machine = MM.Name;
    Row.Passes = passSequenceName(Passes);
    Row.Name = "quality/" + Row.Pipeline +
               (Row.Passes.empty() ? "" : "+" + Row.Passes) + "/" +
               Row.Machine;

    for (size_t S = 0; S != Specs.size(); ++S) {
      auto M = Specs[S].materialize();
      bool RoutineDiverged = false, RoutineFailed = false;
      size_t FnIndex = 0;
      for (auto &F : M->functions()) {
        PipelineOptions Pipe;
        Pipe.Kind = V.Kind;
        Pipe.Machine = &MM;
        Pipe.Passes = Passes;
        PipelineResult R;
        try {
          R = runPipeline(*F, Pipe);
        } catch (const std::exception &) {
          RoutineFailed = true;
          ++FnIndex;
          continue;
        }
        ++Row.Functions;
        Row.StaticCopies += R.StaticCopies;
        Row.SpillStores += R.SpillStores;
        Row.Reloads += R.Reloads;
        Row.SpillSlots += R.SpillSlots;
        Row.RangesSplit += R.RangesSplit;
        Row.MaxRegistersUsed =
            std::max<uint64_t>(Row.MaxRegistersUsed, R.RegistersUsed);

        ExecutionResult E = Interp.run(*F, Specs[S].Args);
        Row.DynamicCopies += E.CopiesExecuted;
        Row.DynamicSpillOps += E.SpillOpsExecuted;
        const RefExec &Ref = Refs[S][FnIndex++];
        if (E.Completed != Ref.Completed ||
            (E.Completed && E.ReturnValue != Ref.ReturnValue))
          RoutineDiverged = true;
      }
      Row.Diverged += RoutineDiverged;
      Row.AllocFailures += RoutineFailed;
    }
    Rows.push_back(std::move(Row));
  }
  return Rows;
}

void writeQualityJson(std::FILE *Out, const std::string &Suite,
                      unsigned Routines,
                      const std::vector<QualityRow> &Rows) {
  std::fprintf(Out,
               "{\"schema\":\"fcc-quality/1\",\"suite\":\"%s\","
               "\"routines\":%u,\"rows\":[",
               Suite.c_str(), Routines);
  for (size_t I = 0; I != Rows.size(); ++I) {
    const QualityRow &R = Rows[I];
    // "passes" appears only on optimized rows, so the base rows stay
    // byte-identical to the pre-pass-layer schema.
    std::string PassesField =
        R.Passes.empty() ? "" : "\"passes\":\"" + R.Passes + "\",";
    std::fprintf(
        Out,
        "%s\n  {\"name\":\"%s\",\"pipeline\":\"%s\",\"machine\":\"%s\","
        "%s\"functions\":%u,"
        "\"static_copies\":%llu,\"spill_stores\":%llu,\"reloads\":%llu,"
        "\"spill_slots\":%llu,\"ranges_split\":%llu,"
        "\"max_registers_used\":%llu,\"dynamic_copies\":%llu,"
        "\"dynamic_spill_ops\":%llu,\"diverged\":%u,\"alloc_failures\":%u}",
        I ? "," : "", R.Name.c_str(), R.Pipeline.c_str(), R.Machine.c_str(),
        PassesField.c_str(), R.Functions,
        static_cast<unsigned long long>(R.StaticCopies),
        static_cast<unsigned long long>(R.SpillStores),
        static_cast<unsigned long long>(R.Reloads),
        static_cast<unsigned long long>(R.SpillSlots),
        static_cast<unsigned long long>(R.RangesSplit),
        static_cast<unsigned long long>(R.MaxRegistersUsed),
        static_cast<unsigned long long>(R.DynamicCopies),
        static_cast<unsigned long long>(R.DynamicSpillOps), R.Diverged,
        R.AllocFailures);
  }
  std::fprintf(Out, "\n]}\n");
}

struct BenchRecord {
  std::string Name;
  std::string Workload;
  unsigned Reps;
  uint64_t NsMedian;
  uint64_t NsMad;
  size_t PeakBytes;
  bool HaveInstructions;
  uint64_t Instructions;
};

BenchRecord measure(const Benchmark &B, unsigned Warmup, unsigned Repeats,
                    InstructionCounter &Counter) {
  for (unsigned I = 0; I != Warmup; ++I) {
    if (B.Setup)
      B.Setup();
    B.Run();
  }

  std::vector<uint64_t> Ns, Instr;
  size_t PeakBytes = 0;
  for (unsigned I = 0; I != Repeats; ++I) {
    if (B.Setup)
      B.Setup();
    Counter.start();
    uint64_t T0 = nowNs();
    PeakBytes = B.Run();
    uint64_t T1 = nowNs();
    uint64_t Retired = Counter.stop();
    Ns.push_back(T1 - T0);
    if (Counter.available())
      Instr.push_back(Retired);
  }

  BenchRecord R;
  R.Name = B.Name;
  R.Workload = B.Workload;
  R.Reps = Repeats;
  R.NsMedian = medianOf(Ns);
  R.NsMad = madOf(Ns, R.NsMedian);
  R.PeakBytes = PeakBytes;
  R.HaveInstructions = !Instr.empty();
  R.Instructions = Instr.empty() ? 0 : medianOf(std::move(Instr));
  return R;
}

void writeJson(std::FILE *Out, const std::string &Suite, unsigned Warmup,
               unsigned Repeats, const std::vector<BenchRecord> &Records) {
  std::fprintf(Out,
               "{\"schema\":\"fcc-bench/1\",\"suite\":\"%s\","
               "\"warmup\":%u,\"repeats\":%u,\"benchmarks\":[",
               Suite.c_str(), Warmup, Repeats);
  for (size_t I = 0; I != Records.size(); ++I) {
    const BenchRecord &R = Records[I];
    std::fprintf(Out,
                 "%s\n  {\"name\":\"%s\",\"workload\":\"%s\",\"reps\":%u,"
                 "\"ns_median\":%llu,\"ns_mad\":%llu,\"peak_bytes\":%zu",
                 I ? "," : "", R.Name.c_str(), R.Workload.c_str(), R.Reps,
                 static_cast<unsigned long long>(R.NsMedian),
                 static_cast<unsigned long long>(R.NsMad), R.PeakBytes);
    if (R.HaveInstructions)
      std::fprintf(Out, ",\"instructions_retired\":%llu}",
                   static_cast<unsigned long long>(R.Instructions));
    else
      std::fprintf(Out, "}"); // Counters unavailable: omit, don't null.
  }
  std::fprintf(Out, "\n]}\n");
}

/// Prints the usage: for --help to stdout with exit code 0, else to stderr
/// with 2.
int usage(const char *Argv0, bool Help = false) {
  std::fprintf(Help ? stdout : stderr,
               "usage: %s --suite=ci|smoke [--out=PATH] [--warmup=N] "
               "[--repeats=N]\n"
               "       [--quality] [--list]\n",
               Argv0);
  return Help ? 0 : 2;
}

} // namespace

int main(int Argc, char **Argv) {
  if (wantsHelp(Argc, Argv))
    return usage(Argv[0], /*Help=*/true);
  std::string Suite, OutPath = "-";
  int64_t WarmupOverride = -1, RepeatsOverride = -1;
  bool ListOnly = false;
  bool Quality = false;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg.rfind("--suite=", 0) == 0) {
      Suite = Arg.substr(8);
    } else if (Arg.rfind("--out=", 0) == 0) {
      OutPath = Arg.substr(6);
    } else if (Arg.rfind("--warmup=", 0) == 0) {
      uint64_t V = 0;
      if (!parseUint64Arg(Arg.substr(9), V)) {
        std::fprintf(stderr, "fcc-bench: bad --warmup argument '%s'\n",
                     Arg.substr(9).c_str());
        return 2;
      }
      WarmupOverride = static_cast<int64_t>(V);
    } else if (Arg.rfind("--repeats=", 0) == 0) {
      uint64_t V = 0;
      if (!parseUint64Arg(Arg.substr(10), V) || V == 0) {
        std::fprintf(stderr, "fcc-bench: bad --repeats argument '%s'\n",
                     Arg.substr(10).c_str());
        return 2;
      }
      RepeatsOverride = static_cast<int64_t>(V);
    } else if (Arg == "--quality") {
      Quality = true;
    } else if (Arg == "--list") {
      ListOnly = true;
    } else {
      std::fprintf(stderr, "fcc-bench: unknown argument '%s'\n", Arg.c_str());
      return usage(Argv[0]);
    }
  }

  SuiteParams Params;
  if (Suite == "ci") {
    Params = {/*Warmup=*/3, /*Repeats=*/21, /*PaperRoutines=*/40,
              /*GenBudget=*/200};
  } else if (Suite == "smoke") {
    Params = {/*Warmup=*/1, /*Repeats=*/3, /*PaperRoutines=*/6,
              /*GenBudget=*/60};
  } else {
    std::fprintf(stderr, "fcc-bench: unknown or missing --suite '%s'\n",
                 Suite.c_str());
    return usage(Argv[0]);
  }
  if (WarmupOverride >= 0)
    Params.Warmup = static_cast<unsigned>(WarmupOverride);
  if (RepeatsOverride > 0)
    Params.Repeats = static_cast<unsigned>(RepeatsOverride);

  if (Quality) {
    if (ListOnly) {
      std::fprintf(stderr, "fcc-bench: --quality does not support --list\n");
      return 2;
    }
    std::vector<RoutineSpec> Specs = paperSuite(Params.PaperRoutines);
    std::vector<QualityRow> Rows = runQualitySuite(Specs);

    std::FILE *Out = stdout;
    if (OutPath != "-") {
      Out = std::fopen(OutPath.c_str(), "w");
      if (!Out) {
        std::fprintf(stderr, "fcc-bench: cannot open '%s' for writing\n",
                     OutPath.c_str());
        return 2;
      }
    }
    writeQualityJson(Out, Suite, Params.PaperRoutines, Rows);
    if (Out != stdout)
      std::fclose(Out);

    // A configuration that changed behavior or failed to allocate is wrong
    // regardless of any baseline: fail the run itself, not just the diff.
    for (const QualityRow &R : Rows)
      if (R.Diverged != 0 || R.AllocFailures != 0) {
        std::fprintf(stderr,
                     "fcc-bench: %s: %u diverged, %u allocation failures\n",
                     R.Name.c_str(), R.Diverged, R.AllocFailures);
        return 1;
      }
    return 0;
  }

  std::vector<Benchmark> Benches = buildSuite(Params);
  if (ListOnly) {
    for (const Benchmark &B : Benches)
      std::printf("%s (%s)\n", B.Name.c_str(), B.Workload.c_str());
    return 0;
  }

  InstructionCounter Counter;
  std::vector<BenchRecord> Records;
  Records.reserve(Benches.size());
  for (const Benchmark &B : Benches)
    Records.push_back(measure(B, Params.Warmup, Params.Repeats, Counter));

  std::FILE *Out = stdout;
  if (OutPath != "-") {
    Out = std::fopen(OutPath.c_str(), "w");
    if (!Out) {
      std::fprintf(stderr, "fcc-bench: cannot open '%s' for writing\n",
                   OutPath.c_str());
      return 2;
    }
  }
  writeJson(Out, Suite, Params.Warmup, Params.Repeats, Records);
  if (Out != stdout)
    std::fclose(Out);
  return 0;
}
