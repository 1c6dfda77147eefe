//===- service/CompilationService.h - Parallel batch driver -----*- C++ -*-===//
///
/// \file
/// The parallel compilation service: shards a corpus of WorkUnits across a
/// work-stealing ThreadPool and runs one of the paper's pipelines over each
/// unit on a worker thread. The design leans on two properties:
///
///   1. Determinism. Every unit materializes its own Module and the
///      pipelines keep no state outside the Function they rewrite (see the
///      re-entrancy guarantee in pipeline/Pipeline.h), so a unit's result
///      is independent of scheduling. Results land in a slot preallocated
///      per unit index, so the aggregate report is identical for --jobs=1
///      and --jobs=N.
///
///   2. Error isolation. Everything that can go wrong with one unit —
///      unreadable file, parse error, verifier rejection, non-strict
///      input, a refuted coalescing partition, a thrown exception, a
///      blown instruction or time budget — is captured as that unit's
///      diagnostic. The batch always completes.
///
/// Runaway protection is cooperative: the instruction budget rejects units
/// too large to compile within the service's latency envelope, the time
/// budget is re-checked between pipeline steps and functions, and
/// execution runs under the interpreter's bounded step limit. cancel()
/// (thread-safe) makes every not-yet-started unit report Cancelled.
///
//===----------------------------------------------------------------------===//

#ifndef FCC_SERVICE_COMPILATIONSERVICE_H
#define FCC_SERVICE_COMPILATIONSERVICE_H

#include "regalloc/MachineModel.h"
#include "service/BatchReport.h"
#include "service/WorkUnit.h"
#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

namespace fcc {

class ResultCache;
class StatsRegistry;
class TraceWriter;

/// Knobs for one batch run.
struct ServiceOptions {
  PipelineKind Pipeline = PipelineKind::New;
  /// When set, a register-allocation stage follows the pipeline: each
  /// function is colored against this machine's banks with spill code
  /// inserted until allocation succeeds (PipelineOptions::Machine). The
  /// canonical model name is folded into the cache fingerprint, so one
  /// cache can serve services targeting different machines.
  std::optional<MachineModel> Machine;
  /// Optimization passes run on each function's SSA form before the
  /// coalescing pipeline (PipelineOptions::Passes). The canonical sequence
  /// spelling is folded into the cache fingerprint — the sequence changes
  /// the rewritten text, so one cache can serve services running different
  /// pipelines.
  std::vector<PassKind> Passes;
  /// Worker threads; 0 means hardware concurrency, 1 runs inline.
  unsigned Jobs = 1;
  /// Validate every New-pipeline partition with CoalescingChecker before
  /// rewriting (ignored for other pipelines).
  bool CheckPartition = false;
  /// Re-verify each rewritten function (cheap; on by default).
  bool VerifyOutput = true;
  /// Insert entry initializations for non-strict inputs instead of
  /// failing them.
  bool EnforceStrictness = false;
  /// Execute every compiled function on ExecArgs under the interpreter.
  bool Execute = false;
  std::vector<int64_t> ExecArgs;
  /// Per-unit compile budget: units whose module exceeds this many input
  /// instructions fail with BudgetExceeded. 0 disables the check.
  unsigned MaxUnitInstructions = 0;
  /// Per-unit wall-clock budget in microseconds, checked cooperatively
  /// between steps and functions. 0 disables the check.
  uint64_t MaxUnitMicros = 0;
  /// Interpreter step limit per executed function (bounds looping units).
  uint64_t ExecStepLimit = 4'000'000;
  /// Collect per-phase timers and named counters across workers into the
  /// report (BatchReport::PhaseTotals / Counters, and per-function
  /// PipelineResult::Phases). Aggregation is deterministic: counters and
  /// call counts are sums of per-unit values, snapshots are name-sorted.
  bool CollectStats = false;
  /// When non-null, every pipeline phase (and each whole unit) is emitted
  /// as a Chrome trace event here, on the worker thread's track. The
  /// writer must outlive run().
  TraceWriter *Trace = nullptr;
  /// When non-null, units are served from / published to this
  /// content-addressed result cache (see server/ResultCache.h). Every
  /// option above that can change a unit's report bytes is folded into the
  /// cache key, so one cache can safely back differently configured
  /// services. The cache must outlive every run()/compileOne() call.
  ResultCache *Cache = nullptr;
  /// Capture the rewritten module text into UnitReport::RewrittenText (the
  /// daemon returns it to clients; fcc-batch does not need it).
  bool WantRewritten = false;
};

/// Stateless-per-run batch compiler; one instance can serve many batches.
class CompilationService {
public:
  explicit CompilationService(ServiceOptions Opts);

  /// Compiles \p Units (possibly concurrently) and returns the aggregate
  /// report, with Units[i] describing the i-th input unit.
  BatchReport run(const std::vector<WorkUnit> &Units);

  /// Compiles a single unit with the same error isolation run() gives each
  /// of its units (exceptions become InternalError reports, never escape).
  /// Thread-safe; the daemon calls this directly from pool tasks so units
  /// from different connections share one cache and one service. \p Registry
  /// may be null.
  UnitReport compileOne(const WorkUnit &Unit, unsigned Index,
                        StatsRegistry *Registry) const;

  /// Cooperative cancellation: units that have not started when the flag
  /// is observed report UnitStatus::Cancelled. Callable from any thread,
  /// including from inside a unit (e.g. a fail-fast policy built on top).
  void cancel() { CancelFlag.store(true); }

  /// Re-arms a cancelled service for the next run().
  void resetCancellation() { CancelFlag.store(false); }

  const ServiceOptions &options() const { return Opts; }

private:
  UnitReport compileUnit(const WorkUnit &Unit, unsigned Index,
                         StatsRegistry *Registry) const;

  ServiceOptions Opts;
  std::atomic<bool> CancelFlag{false};
};

} // namespace fcc

#endif // FCC_SERVICE_COMPILATIONSERVICE_H
