//===- Harness.h - Shared types of the benchmark harness -------*- C++ -*-===//
///
/// \file
/// The benchmark harness drives the library from outside: it generates every
/// input as IR text, compiles it through the library's public entry points
/// and checks every output against the interpreter's run of the unmodified
/// input. Nothing here changes how the library itself works.
///
/// Two ways to compile one unit:
///   compileUntraced — parseModule, verifyFunction, runPipeline,
///                     printFunction: what a user of the library calls.
///   compileTraced   — the same work composed from the public calls
///                     runPipeline makes (splitCriticalEdges, DominatorTree,
///                     buildSSA, runPassSequence, Liveness, FastCoalescer,
///                     insertSpillCode), each wrapped in a span.
/// The traced run checks that both produce byte-identical text and the same
/// allocation.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include "interp/Interpreter.h"
#include "pipeline/Pipeline.h"
#include "regalloc/MachineModel.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include <time.h>

namespace perfbench {

/// Wall time. Spans, round trips and set-up use it.
inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// CPU time of the calling thread. The untraced in-process compiles are
/// single-threaded, so this is their wall time less the time the thread
/// was not running (preempted, or its virtual CPU descheduled by the
/// host). About 0.25 us per call against 0.03 us for nowNs, so spans,
/// which are many per unit, keep the wall clock.
inline uint64_t threadCpuNs() {
  timespec T{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &T);
  return static_cast<uint64_t>(T.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(T.tv_nsec);
}

/// The time of one run of the harness's reference kernel, on the wall clock
/// or the thread's CPU clock. The kernel does fixed, compiler-like work
/// without calling the library; the benchmark divides its time figures by
/// how much slower than ReferenceKernelNs the kernel ran next to them.
double referenceKernelNs(bool Wall);

/// The reference kernel's median CPU time on the machine the benchmark's
/// bounds were set on (a 4-vCPU VM on a 2.1 GHz host).
constexpr double ReferenceKernelNs = 5'000'000;

/// One compile unit: a single-function module as text, the arguments it
/// runs on, and the reference result of interpreting the unmodified input.
struct Unit {
  std::string Name;
  std::string Text;
  std::vector<int64_t> Args;
  fcc::ExecutionResult Ref;
  unsigned InputInsts = 0;
};

/// The pipeline configuration a workload compiles with.
struct Config {
  std::vector<fcc::PassKind> Passes;
  std::optional<fcc::MachineModel> Machine;

  fcc::PipelineOptions pipelineOptions() const;
};

/// Interpreter bound for both the reference and the output runs.
constexpr uint64_t StepLimit = 4'000'000;

/// The count metrics of one compiled output, taken outside every clock.
struct OutputCounts {
  uint64_t StaticCopies = 0;
  uint64_t OutputInsts = 0;
  uint64_t SpillOps = 0;
  uint64_t DynamicCopies = 0;
  uint64_t DynamicInsts = 0;
  /// Time the interpreter took on the outputs (the harness's own cost).
  uint64_t InterpNs = 0;

  void add(const OutputCounts &O);
};

/// Parses \p Text, verifies it and runs it on \p U's arguments; the result
/// must match U.Ref exactly. Returns false with \p Error set otherwise.
bool checkOutput(const Unit &U, const std::string &Text, OutputCounts &Out,
                 std::string &Error);

/// Interprets the unmodified input of \p U into U.Ref and sets InputInsts.
/// Returns false when the input does not parse, verify or terminate.
bool computeReference(Unit &U, std::string &Error);

//===-- Spans -------------------------------------------------------------===//

struct Span {
  const char *Name;
  uint64_t Start;
  uint64_t End;
  int Parent;
  unsigned UnitId;
};

/// In-memory span recorder. Spans nest by construction order (a span opened
/// while another is open is its child).
class Tracer {
public:
  int open(const char *Name, unsigned UnitId) {
    Spans.push_back({Name, nowNs(), 0, Current, UnitId});
    Current = static_cast<int>(Spans.size()) - 1;
    return Current;
  }
  void close(int Id) {
    Spans[Id].End = nowNs();
    Current = Spans[Id].Parent;
  }
  const std::vector<Span> &spans() const { return Spans; }
  void clear() {
    Spans.clear();
    Current = -1;
  }
  /// Self time (duration minus the time covered by child spans) per span
  /// name, added into \p Into.
  void addSelfTimes(std::map<std::string, uint64_t> &Into) const;
  /// Chrome trace-event JSON of the recorded spans.
  bool writeJson(const std::string &Path) const;

private:
  std::vector<Span> Spans;
  int Current = -1;
};

class SpanScope {
public:
  SpanScope(Tracer &T, const char *Name, unsigned UnitId)
      : T(T), Id(T.open(Name, UnitId)) {}
  ~SpanScope() { T.close(Id); }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

private:
  Tracer &T;
  int Id;
};

//===-- Compilation -------------------------------------------------------===//

/// What one compile produced: the rewritten text plus the allocation
/// summary runPipeline reports.
struct CompileOutput {
  bool Ok = false;
  std::string Error;
  std::string Text;
  fcc::PipelineResult Result;
};

/// Layer counters gathered by the traced compile (sums over units, peaks
/// as maxima).
struct LayerCounts {
  uint64_t InputInsts = 0;
  uint64_t Phis = 0;
  uint64_t CopiesFolded = 0;
  uint64_t SsaPeakBytes = 0;
  uint64_t LivenessBytes = 0;
  uint64_t CoalescePeakBytes = 0;
  uint64_t CopiesInserted = 0;
  uint64_t FilterRejections = 0;
  uint64_t Evictions = 0;
  uint64_t UnionsAccepted = 0;
  uint64_t InstsRemoved = 0;
  uint64_t PreHoisted = 0;
  uint64_t RegallocRounds = 0;
  uint64_t RangesSplit = 0;
  uint64_t Functions = 0;

  void add(const LayerCounts &O);
};

CompileOutput compileUntraced(const std::string &Text, const Config &Cfg);

CompileOutput compileTraced(const std::string &Text, const Config &Cfg,
                            Tracer &T, unsigned UnitId, LayerCounts &Counts);

/// True when two compiles produced the same text and the same allocation.
bool sameOutput(const CompileOutput &A, const CompileOutput &B);

//===-- Workloads ---------------------------------------------------------===//

/// paperSuite(\p Count) printed to text; a non-zero \p Seed renames every
/// name and shuffles the order (seed 0 is paperSuite itself).
std::vector<Unit> paperUnits(uint64_t Seed, unsigned Count = 169);

/// The large-CFG functions: two diamond chains, a copy block, a wide join
/// and loop nests, sized by \p Scale (1.0 = the benchmark's size); the seed
/// renames and reorders as for paperUnits.
std::vector<Unit> bigCfgUnits(uint64_t Seed, double Scale = 1.0);

/// The suffix a seed appends to every name: fixed-width, empty for seed 0.
std::string seedSuffix(uint64_t Seed);

/// Consistently renames every variable and the function of \p Text by
/// appending \p Suffix: an alpha-variant with a different text key and the
/// same structural hash.
std::string alphaRename(const std::string &Text, const std::string &Suffix);

//===-- Daemon ------------------------------------------------------------===//

struct DaemonOptions {
  std::string ServerPath;
  std::string SocketPath;
  unsigned Jobs = 1;
  unsigned Connections = 1;
  uint64_t CacheBytes = 0;
};

/// One request of the daemon stream: which unit of the pool it compiles,
/// and the JSON request line carrying its text (the unit's own or an
/// alpha-variant), newline-terminated.
struct Request {
  unsigned UnitIdx;
  std::string Line;
};

/// A running fcc-served child process.
class ServerProcess {
public:
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess &) = delete;
  ServerProcess &operator=(const ServerProcess &) = delete;

  /// Spawns the server and waits until its socket accepts connections.
  bool start(const DaemonOptions &Opts, std::string &Error);
  /// Sends the shutdown op and waits for the process to exit.
  bool stop(std::string &Error);

private:
  int Pid = -1;
  std::string Socket;
};

/// Connects to a Unix socket; -1 on failure.
int connectUnix(const std::string &Path);

/// One line-delimited JSON connection.
class Connection {
public:
  explicit Connection(int Fd) : Fd(Fd) {}
  ~Connection();
  Connection(const Connection &) = delete;
  Connection &operator=(const Connection &) = delete;

  int fd() const { return Fd; }
  bool sendAll(const std::string &Data);
  /// Reads what is available; appends complete lines to \p Lines. False on
  /// EOF or error.
  bool readLines(std::vector<std::string> &Lines);
  /// Blocking request/response for control ops.
  bool roundTrip(const std::string &Line, std::string &Reply);

private:
  int Fd;
  std::string Buf;
};

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
