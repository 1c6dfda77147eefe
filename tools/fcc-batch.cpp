//===- tools/fcc-batch.cpp - Parallel batch driver ------------------------===//
//
// Batch front end for the compilation service: compile a corpus of IR files
// and/or generated routines across worker threads and emit a machine-
// readable JSON report. Per-unit failures (unreadable, unparsable,
// non-verifying, over budget) are reported, never fatal; the exit status
// reflects whether every unit succeeded.
//
//   fcc-batch DIR|FILE... [options]
//
//   --pipeline=new|standard|briggs|briggs*  configuration (default new)
//   --machine=uniformN|dsp|embedded
//                       run the register allocator after the pipeline on
//                       every unit; reports gain per-function and total
//                       spill columns (spill_stores, reloads, ...)
//   --passes=SEQ        comma-separated optimization passes (sccp, adce,
//                       pre) run on every unit's SSA form before the
//                       coalescing pipeline; folded into the cache key
//   --jobs=N            worker threads (default 1; 0 = hardware)
//   --generate=N[:SEED] append N generated routines (default seed 1)
//   --seed=N            generation seed (alternative to --generate's :SEED;
//                       whichever flag comes last wins)
//   --json=PATH         write the JSON report to PATH ('-' for stdout)
//   --no-timings        deterministic report: omit timings and job count,
//                       so reports from different --jobs compare equal
//   --stats             aggregate per-phase timers and named counters
//                       across workers and print them after the summary
//   --cache[=BYTES]     dedup identical and alpha-equivalent units within
//                       the batch through a result cache (default budget
//                       256 MiB); with --stats the deterministic
//                       cache.hits/cache.misses counters land in the
//                       report's "stats" key, byte-identical across --jobs
//   --trace=PATH        write a Chrome trace (chrome://tracing / Perfetto)
//                       of every pipeline phase on every worker to PATH
//   --check             validate each New-pipeline partition (checker)
//   --run ARG,...       execute every function on the integer args
//   --strict            insert entry initializations for non-strict inputs
//   --max-instructions=N  per-unit input-size budget (0 = unlimited)
//   --time-budget-ms=N    per-unit wall-clock budget (0 = unlimited)
//   --quiet             suppress the human-readable summary on stdout
//
// Exit status: 0 all units ok, 1 some unit failed, 2 usage/setup error.
//
//===----------------------------------------------------------------------===//

#include "server/ResultCache.h"
#include "service/CompilationService.h"
#include "service/WorkUnit.h"
#include "support/ArgParse.h"
#include "support/TraceWriter.h"

#include <memory>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

using namespace fcc;

namespace {

struct BatchOptions {
  std::vector<std::string> Paths;
  ServiceOptions Service;
  unsigned GenerateCount = 0;
  uint64_t GenerateSeed = 1;
  std::string JsonPath;
  std::string TracePath;
  bool UseCache = false;
  size_t CacheBytes = 256u << 20;
  bool IncludeTimings = true;
  bool ShowStats = false;
  bool Quiet = false;
};

/// Prints the usage: for --help to stdout with exit code 0, else to stderr
/// with 2.
int usage(const char *Argv0, bool Help = false) {
  std::fprintf(
      Help ? stdout : stderr,
      "usage: %s DIR|FILE... [--pipeline=new|standard|briggs|briggs*]\n"
      "       [--machine=uniformN|dsp|embedded] [--passes=sccp,adce,pre]\n"
      "       [--jobs=N] [--generate=N[:SEED]] [--seed=N] [--json=PATH]\n"
      "       [--no-timings] [--cache[=BYTES]]\n"
      "       [--stats] [--trace=PATH] [--check] [--run ARG,...] [--strict]\n"
      "       [--max-instructions=N] [--time-budget-ms=N] [--quiet]\n",
      Argv0);
  return Help ? 0 : 2;
}

bool parseArgs(int Argc, char **Argv, BatchOptions &Opts) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    uint64_t Value = 0;
    if (Arg.rfind("--pipeline=", 0) == 0) {
      std::string Name = Arg.substr(std::strlen("--pipeline="));
      if (Name == "new")
        Opts.Service.Pipeline = PipelineKind::New;
      else if (Name == "standard")
        Opts.Service.Pipeline = PipelineKind::Standard;
      else if (Name == "briggs")
        Opts.Service.Pipeline = PipelineKind::Briggs;
      else if (Name == "briggs*")
        Opts.Service.Pipeline = PipelineKind::BriggsImproved;
      else {
        std::fprintf(stderr, "unknown pipeline '%s'\n", Name.c_str());
        return false;
      }
    } else if (Arg.rfind("--machine=", 0) == 0) {
      std::string Name = Arg.substr(std::strlen("--machine="));
      MachineModel MM;
      if (!parseMachineModel(Name, MM)) {
        std::fprintf(stderr, "unknown machine model '%s'\n", Name.c_str());
        return false;
      }
      Opts.Service.Machine = std::move(MM);
    } else if (Arg.rfind("--passes=", 0) == 0) {
      std::string Name = Arg.substr(std::strlen("--passes="));
      std::string BadToken;
      if (!parsePassSequence(Name, Opts.Service.Passes, &BadToken)) {
        std::fprintf(stderr, "unknown pass '%s' (known passes: %s)\n",
                     BadToken.c_str(), knownPassNames());
        return false;
      }
    } else if (Arg.rfind("--jobs=", 0) == 0) {
      // parseUint64Arg rejects a sign outright, so --jobs=-1 can never wrap
      // into a huge thread count; the explicit range check keeps the later
      // static_cast<unsigned> lossless.
      if (!parseUint64Arg(Arg.substr(7), Value) ||
          Value > std::numeric_limits<unsigned>::max()) {
        std::fprintf(stderr, "bad --jobs value in '%s'\n", Arg.c_str());
        return false;
      }
      Opts.Service.Jobs = static_cast<unsigned>(Value);
    } else if (Arg.rfind("--generate=", 0) == 0) {
      std::string Spec = Arg.substr(std::strlen("--generate="));
      std::string CountPart = Spec;
      size_t Colon = Spec.find(':');
      if (Colon != std::string::npos) {
        CountPart = Spec.substr(0, Colon);
        if (!parseUint64Arg(Spec.substr(Colon + 1), Opts.GenerateSeed)) {
          std::fprintf(stderr, "bad --generate seed in '%s'\n", Arg.c_str());
          return false;
        }
      }
      if (!parseUint64Arg(CountPart, Value) ||
          Value > std::numeric_limits<unsigned>::max()) {
        std::fprintf(stderr, "bad --generate count in '%s'\n", Arg.c_str());
        return false;
      }
      Opts.GenerateCount = static_cast<unsigned>(Value);
    } else if (Arg.rfind("--seed=", 0) == 0) {
      if (!parseUint64Arg(Arg.substr(7), Opts.GenerateSeed)) {
        std::fprintf(stderr, "bad --seed value in '%s'\n", Arg.c_str());
        return false;
      }
    } else if (Arg.rfind("--json=", 0) == 0) {
      Opts.JsonPath = Arg.substr(7);
    } else if (Arg.rfind("--trace=", 0) == 0) {
      Opts.TracePath = Arg.substr(std::strlen("--trace="));
    } else if (Arg == "--no-timings") {
      Opts.IncludeTimings = false;
    } else if (Arg == "--cache") {
      Opts.UseCache = true;
    } else if (Arg.rfind("--cache=", 0) == 0) {
      if (!parseUint64Arg(Arg.substr(std::strlen("--cache=")), Value) ||
          Value == 0) {
        std::fprintf(stderr, "bad --cache value in '%s'\n", Arg.c_str());
        return false;
      }
      Opts.UseCache = true;
      Opts.CacheBytes = static_cast<size_t>(Value);
    } else if (Arg == "--stats") {
      Opts.ShowStats = true;
      Opts.Service.CollectStats = true;
    } else if (Arg == "--check") {
      Opts.Service.CheckPartition = true;
    } else if (Arg == "--strict") {
      Opts.Service.EnforceStrictness = true;
    } else if (Arg == "--quiet") {
      Opts.Quiet = true;
    } else if (Arg.rfind("--max-instructions=", 0) == 0) {
      if (!parseUint64Arg(Arg.substr(std::strlen("--max-instructions=")),
                          Value) ||
          Value > std::numeric_limits<unsigned>::max()) {
        std::fprintf(stderr, "bad value in '%s'\n", Arg.c_str());
        return false;
      }
      Opts.Service.MaxUnitInstructions = static_cast<unsigned>(Value);
    } else if (Arg.rfind("--time-budget-ms=", 0) == 0) {
      if (!parseUint64Arg(Arg.substr(std::strlen("--time-budget-ms=")),
                          Value)) {
        std::fprintf(stderr, "bad value in '%s'\n", Arg.c_str());
        return false;
      }
      Opts.Service.MaxUnitMicros = Value * 1000;
    } else if (Arg == "--run") {
      Opts.Service.Execute = true;
      // The next argument is the comma-separated list when it is not a
      // flag; a leading '-' followed by a digit is a negative value, not a
      // flag.
      if (I + 1 < Argc &&
          (Argv[I + 1][0] != '-' ||
           std::isdigit(static_cast<unsigned char>(Argv[I + 1][1])))) {
        std::string Args = Argv[++I];
        std::string BadToken;
        if (!splitIntList(Args, Opts.Service.ExecArgs, BadToken)) {
          std::fprintf(stderr, "bad --run argument '%s'\n",
                       BadToken.c_str());
          return false;
        }
      }
    } else if (!Arg.empty() && Arg[0] != '-') {
      Opts.Paths.push_back(Arg);
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", Arg.c_str());
      return false;
    }
  }
  return !Opts.Paths.empty() || Opts.GenerateCount != 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (wantsHelp(Argc, Argv))
    return usage(Argv[0], /*Help=*/true);
  BatchOptions Opts;
  if (!parseArgs(Argc, Argv, Opts))
    return usage(Argv[0]);
  if (Opts.Service.CheckPartition &&
      Opts.Service.Pipeline != PipelineKind::New) {
    std::fprintf(stderr, "--check requires --pipeline=new\n");
    return 2;
  }
  if (!Opts.Service.Passes.empty() &&
      (Opts.Service.Pipeline == PipelineKind::Briggs ||
       Opts.Service.Pipeline == PipelineKind::BriggsImproved)) {
    std::fprintf(stderr,
                 "--passes is not supported with the Briggs pipelines "
                 "(live-range webs assume unoptimized SSA)\n");
    return 2;
  }

  std::vector<WorkUnit> Units;
  for (const std::string &Path : Opts.Paths) {
    std::string Error;
    if (!collectUnits(Path, Units, Error)) {
      std::fprintf(stderr, "%s\n", Error.c_str());
      return 2;
    }
  }
  if (Opts.GenerateCount != 0) {
    std::vector<WorkUnit> Gen =
        generatedCorpus(Opts.GenerateCount, Opts.GenerateSeed);
    for (WorkUnit &U : Gen)
      Units.push_back(std::move(U));
  }
  if (Units.empty()) {
    std::fprintf(stderr, "no work units (no .ir/.fcc files found)\n");
    return 2;
  }

  TraceWriter Trace;
  if (!Opts.TracePath.empty())
    Opts.Service.Trace = &Trace;

  std::unique_ptr<ResultCache> Cache;
  if (Opts.UseCache) {
    Cache = std::make_unique<ResultCache>(
        ResultCache::Options{Opts.CacheBytes, /*Shards=*/8});
    Opts.Service.Cache = Cache.get();
  }

  CompilationService Service(Opts.Service);
  BatchReport Report = Service.run(Units);

  if (!Opts.TracePath.empty()) {
    std::string TraceError;
    if (!Trace.writeFile(Opts.TracePath, TraceError)) {
      std::fprintf(stderr, "%s\n", TraceError.c_str());
      return 2;
    }
  }

  if (!Opts.JsonPath.empty()) {
    std::string Json = Report.toJson(Opts.IncludeTimings);
    if (Opts.JsonPath == "-") {
      std::fwrite(Json.data(), 1, Json.size(), stdout);
      std::fputc('\n', stdout);
    } else {
      std::ofstream Out(Opts.JsonPath, std::ios::binary);
      if (!Out) {
        std::fprintf(stderr, "cannot write %s\n", Opts.JsonPath.c_str());
        return 2;
      }
      Out << Json << '\n';
    }
  }

  if (!Opts.Quiet)
    std::fputs(Report.summary().c_str(), stdout);
  if (Opts.ShowStats)
    std::fputs(Report.statsText(Opts.IncludeTimings).c_str(), stdout);

  return Report.totals().Failed == 0 ? 0 : 1;
}
