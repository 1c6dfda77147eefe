//===- service/CompilationService.cpp -------------------------------------===//

#include "service/CompilationService.h"

#include "interp/Interpreter.h"
#include "ir/Function.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Module.h"
#include "ir/StructuralHash.h"
#include "ir/Verifier.h"
#include "server/ResultCache.h"
#include "support/Stats.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"
#include "support/TraceWriter.h"
#include "workload/ProgramGenerator.h"

#include <exception>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>

using namespace fcc;

CompilationService::CompilationService(ServiceOptions Opts)
    : Opts(std::move(Opts)) {}

namespace {

/// Reads a whole file; false on any stream error.
bool readFile(const std::string &Path, std::string &Out, std::string &Error) {
  std::ifstream In(Path);
  if (!In) {
    Error = "cannot open " + Path;
    return false;
  }
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  if (In.bad()) {
    Error = "read failed for " + Path;
    return false;
  }
  Out = Buffer.str();
  return true;
}

/// True when \p Deadline (a per-unit stopwatch with budget \p MaxMicros)
/// has expired. A zero budget never expires.
bool overBudget(const Timer &Deadline, uint64_t MaxMicros) {
  return MaxMicros != 0 && Deadline.elapsedMicros() > MaxMicros;
}

/// Hashes every option that can change a unit's report bytes into one
/// fingerprint. It is folded into every cache key, so a cache shared by
/// differently configured services (or a daemon restarted with new flags)
/// never serves a stale artifact. MaxUnitMicros is deliberately excluded: a
/// wall-clock budget can only turn success into failure, and failures are
/// never cached. Jobs is excluded for the same reason determinism tests
/// compare across job counts — it cannot change report bytes.
uint64_t configFingerprint(const ServiceOptions &O) {
  Hasher128 H;
  H.absorb(0xfccc0f19); // Domain tag: service configuration.
  H.absorb(static_cast<uint64_t>(O.Pipeline));
  // The canonical machine name determines the model (classes and bank
  // sizes) uniquely, and the model changes both the rewritten text and the
  // report's allocation columns.
  H.absorb(O.Machine ? 1 : 0);
  if (O.Machine)
    H.absorbBytes(O.Machine->Name);
  // The canonical sequence spelling determines the pass pipeline uniquely,
  // and passes change the rewritten text and copy counts.
  std::string Passes = passSequenceName(O.Passes);
  H.absorb(Passes.size());
  H.absorbBytes(Passes);
  uint64_t Flags = 0;
  Flags |= O.CheckPartition ? 1u : 0u;
  Flags |= O.VerifyOutput ? 2u : 0u;
  Flags |= O.EnforceStrictness ? 4u : 0u;
  Flags |= O.Execute ? 8u : 0u;
  Flags |= O.CollectStats ? 16u : 0u; // Phase samples land in the records.
  Flags |= O.Trace ? 32u : 0u;
  H.absorb(Flags);
  H.absorb(O.MaxUnitInstructions);
  H.absorb(O.ExecStepLimit);
  H.absorb(O.ExecArgs.size());
  for (int64_t A : O.ExecArgs)
    H.absorb(static_cast<uint64_t>(A));
  Digest128 D = H.digest();
  return D.Hi ^ D.Lo;
}

/// The exact-bytes cache key: a digest of the unit's source text — or, for
/// generated units, of the full generator spec, which determines the text
/// bit-for-bit — plus the configuration fingerprint. Hitting on this key
/// skips parsing entirely.
CacheKey textKeyFor(const WorkUnit &Unit, const std::string &Source,
                    uint64_t Cfg) {
  Hasher128 H;
  H.absorb(0x7e77); // Domain tag: text keys.
  H.absorb(Cfg);
  if (Unit.Generated) {
    H.absorb(1);
    H.absorbBytes(Unit.Name); // The generated function is named after it.
    const GeneratorOptions &G = Unit.GenOpts;
    H.absorb(G.Seed);
    H.absorb(G.SizeBudget);
    H.absorb(G.NumVars);
    H.absorb(G.NumParams);
    H.absorb(G.MaxLoopDepth);
    H.absorb(G.LoopTripMax);
    H.absorb(G.CopyPercent);
    H.absorb(G.MemPercent);
    H.absorb(G.RunLength);
  } else {
    H.absorb(2);
    H.absorbBytes(Source);
  }
  Digest128 D = H.digest();
  return {D.Hi, D.Lo};
}

/// The alpha-canonical cache key: the module's StructuralHash plus the
/// configuration fingerprint. Alpha-variant resubmissions land here.
CacheKey structKeyFor(const Module &M, uint64_t Cfg) {
  Hasher128 H;
  H.absorb(0x57c7); // Domain tag: structural keys.
  H.absorb(Cfg);
  Digest128 S = structuralHash(M);
  H.absorb(S.Hi);
  H.absorb(S.Lo);
  Digest128 D = H.digest();
  return {D.Hi, D.Lo};
}

} // namespace

UnitReport CompilationService::compileUnit(const WorkUnit &Unit,
                                           unsigned Index,
                                           StatsRegistry *Registry) const {
  UnitReport Report;
  Report.Index = Index;
  Report.Name = Unit.Name;
  Report.Path = Unit.Path;
  Timer UnitClock;

  // The per-unit instrumentation handle; sinks are shared across workers
  // (the registry and trace writer are thread-safe), labels are ours.
  // Trace events stage in a unit-local buffer flushed once at unit end, so
  // the writer's lock is taken once per unit, not once per phase.
  Instrumentation Instr;
  Instr.Stats = Registry;
  Instr.Trace = Opts.Trace;
  Instr.Unit = Unit.Name;
  std::vector<TraceEvent> TraceBuf;
  if (Opts.Trace)
    Instr.TraceBuf = &TraceBuf;
  const bool Observe = Instr.active();
  const uint64_t UnitTraceStart = Opts.Trace ? Opts.Trace->nowMicros() : 0;
  auto EmitUnitSpan = [&] {
    if (!Opts.Trace)
      return;
    TraceBuf.push_back({Unit.Name, "unit", UnitTraceStart,
                        Opts.Trace->nowMicros() - UnitTraceStart, /*Tid=*/0,
                        Unit.Name, std::string()});
    Opts.Trace->appendEvents(std::move(TraceBuf));
  };

  ResultCache *Cache = Opts.Cache;
  const uint64_t CfgFp = Cache ? configFingerprint(Opts) : 0;

  // With a cache attached every unit resolves as exactly one hit or one
  // miss (failures count as misses), so with a large-enough budget the
  // counters are a pure function of the corpus — 1 miss + K-1 hits for K
  // identical units under any scheduling.
  enum class CacheNote { None, Hit, Miss };
  CacheNote Note = Cache ? CacheNote::Miss : CacheNote::None;
  auto NoteOutcome = [&] {
    if (!Registry || Note == CacheNote::None)
      return;
    Registry->bump(Note == CacheNote::Hit ? "cache.hits" : "cache.misses");
    Note = CacheNote::None;
  };

  auto Fail = [&](UnitStatus Status, std::string Error) -> UnitReport & {
    Report.Status = Status;
    Report.Error = std::move(Error);
    Report.TotalMicros = UnitClock.elapsedMicros();
    NoteOutcome();
    EmitUnitSpan();
    return Report;
  };

  /// Fills the report from a published cache value, substituting this
  /// unit's own function names so repeat and alpha-variant submissions get
  /// byte-identical-to-compiled report entries.
  auto Serve = [&](const std::shared_ptr<const CacheValue> &V,
                   const std::vector<std::string> &Names) -> UnitReport & {
    Report.Functions = V->Functions;
    for (size_t I = 0; I < Report.Functions.size() && I < Names.size(); ++I)
      Report.Functions[I].Name = Names[I];
    if (Opts.WantRewritten)
      Report.RewrittenText = V->RewrittenText;
    Report.FromCache = true;
    Note = CacheNote::Hit;
    NoteOutcome();
    Report.TotalMicros = UnitClock.elapsedMicros();
    EmitUnitSpan();
    return Report;
  };

  if (CancelFlag.load())
    return Fail(UnitStatus::Cancelled, "batch cancelled");

  // Materialize the unit's bytes (file units are read up front so the text
  // key can be derived before any parsing happens).
  std::string Source;
  if (!Unit.Generated) {
    Source = Unit.Source;
    if (!Unit.Path.empty()) {
      std::string IoError;
      if (!readFile(Unit.Path, Source, IoError))
        return Fail(UnitStatus::ReadError, IoError);
    }
  }

  // Warm fast path: exact bytes seen before, under this configuration.
  CacheKey TextKey{}, StructKey{};
  if (Cache) {
    TextKey = textKeyFor(Unit, Source, CfgFp);
    if (auto Hit = Cache->lookupText(TextKey))
      return Serve(Hit->Value, Hit->FunctionNames);
  }

  // Materialize the unit's own Module: parse the source, or run the
  // deterministic generator. Nothing here is shared across units.
  std::unique_ptr<Module> M;
  if (Unit.Generated) {
    M = std::make_unique<Module>();
    generateProgram(*M, Unit.Name, Unit.GenOpts);
  } else {
    std::string ParseError;
    M = parseModule(Source, ParseError);
    if (!M)
      return Fail(UnitStatus::ParseError, ParseError);
  }

  if (Opts.MaxUnitInstructions != 0) {
    unsigned Total = 0;
    for (const auto &FPtr : M->functions())
      Total += FPtr->instructionCount();
    if (Total > Opts.MaxUnitInstructions)
      return Fail(UnitStatus::BudgetExceeded,
                  "unit has " + std::to_string(Total) +
                      " instructions, budget is " +
                      std::to_string(Opts.MaxUnitInstructions));
  }

  // With a cache attached, validation runs as a pre-pass (same order, same
  // diagnostics as the compile loop below) so the structural key is only
  // derived — and ownership only claimed — for units that will actually
  // compile. enforceStrictness mutates the function, so the key hashes the
  // program as compiled, not as submitted.
  bool OwnerActive = false;
  if (Cache) {
    for (const auto &FPtr : M->functions()) {
      Function &F = *FPtr;
      if (Opts.EnforceStrictness)
        enforceStrictness(F);
      std::string Error;
      if (!verifyFunction(F, Error))
        return Fail(UnitStatus::VerifyError, "@" + F.name() + ": " + Error);
      if (!isStrict(F))
        return Fail(UnitStatus::NotStrict,
                    "@" + F.name() +
                        " is not strict (a use may precede every definition)");
    }
    StructKey = structKeyFor(*M, CfgFp);
    ResultCache::StructResult R = Cache->lookupOrStart(StructKey);
    if (!R.Owner) {
      // An alpha-equivalent unit already compiled (or a concurrent owner
      // just finished). Serve it under this unit's own names, and teach
      // the text key so the next identical submission skips parsing too.
      std::vector<std::string> Names;
      for (const auto &FPtr : M->functions())
        Names.push_back(FPtr->name());
      Cache->addAlias(TextKey, StructKey, Names);
      return Serve(R.Value, Names);
    }
    OwnerActive = true;
  }

  // From here on the in-flight marker must be resolved on every exit path,
  // or concurrent requesters of this key would block forever. The guard
  // retracts it on failure and on exceptions; success disarms it after
  // complete() publishes.
  struct OwnerGuard {
    ResultCache *Cache;
    CacheKey Key;
    bool Active;
    ~OwnerGuard() {
      if (Active)
        Cache->abort(Key);
    }
  } Guard{Cache, StructKey, OwnerActive};

  const bool Prevalidated = Cache != nullptr;
  for (const auto &FPtr : M->functions()) {
    Function &F = *FPtr;
    if (overBudget(UnitClock, Opts.MaxUnitMicros))
      return Fail(UnitStatus::BudgetExceeded,
                  "time budget exhausted before @" + F.name());
    if (CancelFlag.load())
      return Fail(UnitStatus::Cancelled, "batch cancelled at @" + F.name());

    std::string Error;
    if (!Prevalidated) {
      if (Opts.EnforceStrictness)
        enforceStrictness(F);
      if (!verifyFunction(F, Error))
        return Fail(UnitStatus::VerifyError, "@" + F.name() + ": " + Error);
      if (!isStrict(F))
        return Fail(UnitStatus::NotStrict,
                    "@" + F.name() +
                        " is not strict (a use may precede every definition)");
    }

    FunctionRecord Record;
    Record.Name = F.name();
    Record.InputStaticCopies = F.staticCopyCount();
    Record.InputInstructions = F.instructionCount();

    Instr.Function = F.name();
    const Instrumentation *InstrPtr = Observe ? &Instr : nullptr;
    PipelineOptions PipeOpts;
    PipeOpts.Kind = Opts.Pipeline;
    PipeOpts.Instr = InstrPtr;
    PipeOpts.Machine = Opts.Machine ? &*Opts.Machine : nullptr;
    PipeOpts.Passes = Opts.Passes;
    if (Opts.CheckPartition && Opts.Pipeline == PipelineKind::New) {
      if (!runPipelineChecked(F, PipeOpts, Record.Compile, Error))
        return Fail(UnitStatus::CheckFailed, "@" + F.name() + ": " + Error);
    } else {
      Record.Compile = runPipeline(F, PipeOpts);
    }

    if (Registry)
      Registry->noteMax("pipeline.peak-bytes", Record.Compile.PeakBytes);

    if (Opts.VerifyOutput && !verifyFunction(F, Error))
      return Fail(UnitStatus::OutputInvalid, "@" + F.name() + ": " + Error);

    if (Opts.Execute && !overBudget(UnitClock, Opts.MaxUnitMicros)) {
      Record.Executed = true;
      Record.Exec = Interpreter(/*MemoryWords=*/64, Opts.ExecStepLimit)
                        .run(F, Opts.ExecArgs);
    }

    Report.Functions.push_back(std::move(Record));
  }

  if (OwnerActive) {
    // Publish under the structural key, then teach the text key. The value
    // carries this unit's names and rewritten text; alpha-variants served
    // later substitute their own names (a consistent renaming).
    auto Value = std::make_shared<CacheValue>();
    Value->Functions = Report.Functions;
    Value->RewrittenText = printModule(*M);
    if (Opts.WantRewritten)
      Report.RewrittenText = Value->RewrittenText;
    std::vector<std::string> Names;
    Names.reserve(Report.Functions.size());
    for (const FunctionRecord &R : Report.Functions)
      Names.push_back(R.Name);
    Cache->complete(StructKey, std::move(Value));
    Guard.Active = false;
    Cache->addAlias(TextKey, StructKey, std::move(Names));
  } else if (Opts.WantRewritten) {
    Report.RewrittenText = printModule(*M);
  }

  NoteOutcome();
  Report.TotalMicros = UnitClock.elapsedMicros();
  EmitUnitSpan();
  return Report;
}

UnitReport CompilationService::compileOne(const WorkUnit &Unit,
                                          unsigned Index,
                                          StatsRegistry *Registry) const {
  auto Isolate = [&](const char *What) {
    UnitReport U;
    U.Index = Index;
    U.Name = Unit.Name;
    U.Path = Unit.Path;
    U.Status = UnitStatus::InternalError;
    U.Error = What;
    return U;
  };
  try {
    return compileUnit(Unit, Index, Registry);
  } catch (const std::exception &E) {
    return Isolate(E.what());
  } catch (...) {
    return Isolate("unknown exception");
  }
}

BatchReport CompilationService::run(const std::vector<WorkUnit> &Units) {
  BatchReport Report;
  Report.Kind = Opts.Pipeline;
  unsigned Jobs = Opts.Jobs;
  if (Jobs == 0) {
    Jobs = std::thread::hardware_concurrency();
    if (Jobs == 0)
      Jobs = 1;
  }
  Report.Jobs = Jobs;
  Report.Units.resize(Units.size());

  // One registry per run when stats were requested; workers bump it
  // concurrently and the sums are scheduling-independent.
  std::optional<StatsRegistry> Registry;
  if (Opts.CollectStats)
    Registry.emplace();
  StatsRegistry *Reg = Registry ? &*Registry : nullptr;

  // Each worker writes only its own preallocated slot, so no result lock
  // is needed and the aggregate is deterministic by construction.
  auto RunOne = [this, &Report, &Units, Reg](unsigned I) {
    Report.Units[I] = compileOne(Units[I], I, Reg);
  };

  Timer Wall;
  if (Jobs <= 1 || Units.size() <= 1) {
    for (unsigned I = 0; I != Units.size(); ++I)
      RunOne(I);
  } else {
    ThreadPool Pool(Jobs);
    for (unsigned I = 0; I != Units.size(); ++I)
      Pool.submit([&RunOne, I] { RunOne(I); });
    Pool.wait();
  }
  Report.WallMicros = Wall.elapsedMicros();
  if (Registry) {
    Report.HasStats = true;
    Report.Counters = Registry->counters();
    Report.PhaseTotals = Registry->phases();
  }
  return Report;
}
