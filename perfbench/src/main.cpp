//===- main.cpp - The benchmark harness -----------------------------------===//
///
/// perfbench --workload W --seed N --seconds S --trace 0|1 --out-dir DIR
///            --server PATH
/// perfbench --selftest --out-dir DIR --server PATH
///
/// Prints one line per metric, then, as the last line, one JSON object with
/// the keys correct, attempted, failed and metrics. With --trace 0 the
/// metrics are the end-to-end ones; with --trace 1 the per-layer ones, from
/// a separate traced run. Exits 1 when any output is wrong, 2 on a usage or
/// set-up error (without printing a result).
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Module.h"
#include "ir/StructuralHash.h"
#include "server/Json.h"
#include "server/ResultCache.h"
#include "service/BatchReport.h"
#include "service/CompilationService.h"
#include "support/SplitMix64.h"
#include "workload/KernelSuite.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include <poll.h>
#include <sys/resource.h>
#include <unistd.h>

using namespace fcc;
using namespace perfbench;

namespace {

//===-- Settings ----------------------------------------------------------===//

/// How much measured compile time may pass between two runs of the
/// reference kernel (see HostSpeed) in the in-process workloads.
constexpr double MarkEveryNs = 40e6;

/// How often set-up is repeated; setup_s is the median.
constexpr unsigned SetupRepsInProcess = 7;
constexpr unsigned SetupRepsDaemon = 5;

/// A traced unit's time (without the harness's own counter spans) must be
/// within TraceTolRel of its untraced time plus TraceTolAbsNs, which covers
/// the spans' own clock reads (about 15 spans a unit); the sums over the
/// workload must agree within TraceTolTotal. Both times are medians over
/// passes, taken pair by pair and balanced over which of the two compiles
/// ran first (see PairedTimes). At seed 1 the worst unit was 3% off on
/// big-cfg, 4% on paper169, 8% among the daemon's misses and 16% on
/// opt-alloc.
constexpr double TraceTolRel = 0.25;
constexpr double TraceTolAbsNs = 5'000;
constexpr double TraceTolTotal = 0.10;
constexpr size_t TraceMinSamples = 3;

/// Daemon traffic: a pool of units drawn with a Zipf law, a fixed request
/// list per pass, a cache smaller than the pool's results.
constexpr unsigned DaemonPool = 400;
constexpr unsigned DaemonRequests = 2000;
constexpr unsigned DaemonVariants = 3;
constexpr unsigned DaemonVariantPercent = 25;
constexpr uint64_t DaemonCacheBytes = 1u << 20;
constexpr unsigned DaemonMaxRetries = 1000;

//===-- Results -----------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
  std::string Note;
};

struct Outcome {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Problems;
  std::vector<Metric> Metrics;

  void fail(const std::string &What) {
    ++Failed;
    if (Problems.size() < 20)
      Problems.push_back(What);
  }
  void add(std::string Name, double Value, std::string Unit,
           std::string Note = std::string()) {
    Metrics.push_back({std::move(Name), Value, std::move(Unit),
                       std::move(Note)});
  }
};

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// The highest whole percentile with at least ten samples above its rank.
struct Tail {
  unsigned Percentile = 0;
  double Value = 0;
  size_t Beyond = 0;
  size_t Samples = 0;
};

Tail tailOf(std::vector<double> V) {
  Tail T;
  T.Samples = V.size();
  if (V.empty())
    return T;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  for (int P = 99; P >= 0; --P) {
    size_t Rank = std::max<size_t>(
        1, static_cast<size_t>(std::ceil(P / 100.0 * static_cast<double>(N))));
    if (N - Rank >= 10 || P == 0) {
      T.Percentile = static_cast<unsigned>(P);
      T.Value = V[Rank - 1];
      T.Beyond = N - Rank;
      return T;
    }
  }
  return T;
}

double peakRssMb(int Who) {
  rusage U{};
  getrusage(Who, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // KiB on Linux.
}

double secondsSince(uint64_t T0) { return (nowNs() - T0) / 1e9; }

/// How much slower than on the reference machine the host runs, next to
/// each measurement. A shared virtual machine's speed drifts by 20% and
/// more over minutes (other tenants' load, processors taken by the host);
/// CPU time removes only the part where the thread is not running. So the
/// reference kernel runs between measurements (passes, set-up repetitions,
/// or in-process every MarkEveryNs of compile time), on the measurement's
/// clock, and every time figure is divided by the mean slowness of the
/// kernel runs just before and just after it. The figures are therefore
/// times on the reference machine; the raw ones are printed beside them.
class HostSpeed {
public:
  explicit HostSpeed(bool Wall) : Wall(Wall) {}
  /// Runs the kernel. Call it before the first measurement and after each.
  void mark() { KernelNs.push_back(referenceKernelNs(Wall)); }
  /// The slowness over the measurement that ended with the last mark().
  double last() const {
    size_t N = KernelNs.size();
    return (KernelNs[N - 2] + KernelNs[N - 1]) / 2 / ReferenceKernelNs;
  }
  double medianKernelMs() const { return median(KernelNs) / 1e6; }

private:
  bool Wall;
  std::vector<double> KernelNs;
};

//===-- In-process workloads ----------------------------------------------===//

struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10;
  bool Trace = false;
  bool SelfTest = false;
  std::string OutDir = ".";
  std::string ServerPath;
};

struct InProcess {
  std::function<std::vector<Unit>(uint64_t)> Generate;
  Config Cfg;
};

InProcess inProcessWorkload(const std::string &Name, double Scale) {
  InProcess W;
  unsigned Count = std::max(19u, static_cast<unsigned>(169 * Scale));
  if (Name == "paper169" || Name == "opt-alloc")
    W.Generate = [Count](uint64_t Seed) { return paperUnits(Seed, Count); };
  else
    W.Generate = [Scale](uint64_t Seed) { return bigCfgUnits(Seed, Scale); };
  if (Name == "opt-alloc") {
    W.Cfg.Passes = {PassKind::Sccp, PassKind::Adce, PassKind::Pre};
    W.Cfg.Machine = uniformMachine(4);
  }
  return W;
}

/// Generates the inputs and their references \p Reps times; returns the
/// median wall time, at reference speed, and keeps the last set.
double setUpUnits(const InProcess &W, uint64_t Seed, unsigned Reps,
                  std::vector<Unit> &Units, Outcome &O) {
  std::vector<double> Times;
  HostSpeed Host(/*Wall=*/true);
  Host.mark();
  for (unsigned R = 0; R != Reps; ++R) {
    uint64_t T0 = nowNs();
    Units = W.Generate(Seed);
    for (Unit &U : Units) {
      std::string Error;
      if (!computeReference(U, Error)) {
        O.fail(U.Name + ": bad input: " + Error);
        U.Text.clear();
      }
    }
    double Seconds = secondsSince(T0);
    Host.mark();
    Times.push_back(Seconds / Host.last());
  }
  return median(Times);
}

/// Compiles every unit once and checks every output. Fills the expected
/// texts and the count metrics.
void checkPass(const std::vector<Unit> &Units, const Config &Cfg,
               std::vector<std::string> &Expected, OutputCounts &Counts,
               Outcome &O) {
  Expected.assign(Units.size(), std::string());
  for (size_t I = 0; I != Units.size(); ++I) {
    const Unit &U = Units[I];
    ++O.Attempted;
    if (U.Text.empty())
      continue; // Already failed at set-up.
    CompileOutput Out = compileUntraced(U.Text, Cfg);
    std::string Error;
    if (!Out.Ok) {
      O.fail(U.Name + ": " + Out.Error);
      continue;
    }
    if (!checkOutput(U, Out.Text, Counts, Error)) {
      O.fail(U.Name + ": " + Error);
      continue;
    }
    Expected[I] = std::move(Out.Text);
  }
}

void addCountMetrics(Outcome &O, const OutputCounts &C) {
  O.add("static_copies", static_cast<double>(C.StaticCopies), "count");
  O.add("output_insts", static_cast<double>(C.OutputInsts), "count");
  O.add("dynamic_copies", static_cast<double>(C.DynamicCopies), "count");
  O.add("dynamic_insts", static_cast<double>(C.DynamicInsts), "count");
}

/// The time figures of a run, per pass, already at reference speed, and
/// the raw throughput per pass.
struct Timings {
  std::vector<double> Throughput, RawThroughput, LatencyMs;
};

void addLatencyMetrics(Outcome &O, const Timings &T, const HostSpeed &Host) {
  O.add("throughput_kinst_s", median(T.Throughput), "kinst/s",
        std::to_string(T.Throughput.size()) + " passes");
  O.add("unit_ms_p50", median(T.LatencyMs), "ms",
        std::to_string(T.LatencyMs.size()) + " samples");
  Tail Tl = tailOf(T.LatencyMs);
  O.add("unit_ms_tail", Tl.Value, "ms",
        "p" + std::to_string(Tl.Percentile) + ", " +
            std::to_string(Tl.Samples) + " samples, " +
            std::to_string(Tl.Beyond) + " beyond");
  std::printf("info reference kernel %.4g ms median (%.4g ms on the "
              "reference machine); raw throughput %.6g kinst/s median\n",
              Host.medianKernelMs(), ReferenceKernelNs / 1e6,
              median(T.RawThroughput));
}

void runInProcess(const Options &Opt, Outcome &O) {
  InProcess W = inProcessWorkload(Opt.Workload, 1.0);
  std::vector<Unit> Units;
  double Setup = setUpUnits(W, Opt.Seed, SetupRepsInProcess, Units, O);

  std::vector<std::string> Expected;
  OutputCounts Counts;
  checkPass(Units, W.Cfg, Expected, Counts, O);

  uint64_t TotalInsts = 0;
  for (const Unit &U : Units)
    TotalInsts += U.InputInsts;

  // Unit times not yet divided by the host's slowness, with their pass;
  // the reference kernel runs once they add up to MarkEveryNs.
  HostSpeed Host(/*Wall=*/false);
  std::vector<std::pair<size_t, double>> Open;
  double OpenNs = 0;
  std::vector<double> PassRawNs, PassNs;
  Timings Tm;
  auto Divide = [&] {
    Host.mark();
    for (const auto &[Pass, Ns] : Open) {
      PassNs[Pass] += Ns / Host.last();
      Tm.LatencyMs.push_back(Ns / Host.last() / 1e6);
    }
    Open.clear();
    OpenNs = 0;
  };
  Host.mark();
  uint64_t Start = nowNs();
  while (secondsSince(Start) < Opt.Seconds) {
    PassRawNs.push_back(0);
    PassNs.push_back(0);
    for (size_t I = 0; I != Units.size(); ++I) {
      if (Expected[I].empty())
        continue;
      ++O.Attempted;
      uint64_t T0 = threadCpuNs();
      CompileOutput Out = compileUntraced(Units[I].Text, W.Cfg);
      double Dt = static_cast<double>(threadCpuNs() - T0);
      PassRawNs.back() += Dt;
      Open.push_back({PassNs.size() - 1, Dt});
      if ((OpenNs += Dt) >= MarkEveryNs)
        Divide();
      if (!Out.Ok || Out.Text != Expected[I])
        O.fail(Units[I].Name + ": output differs from the checked one");
    }
  }
  if (!Open.empty())
    Divide();
  auto Kinst = [&](double Ns) {
    return static_cast<double>(TotalInsts) / (Ns / 1e9) / 1e3;
  };
  for (size_t P = 0; P != PassNs.size(); ++P) {
    Tm.RawThroughput.push_back(Kinst(PassRawNs[P]));
    Tm.Throughput.push_back(Kinst(PassNs[P]));
  }

  O.add("setup_s", Setup, "s",
        "median of " + std::to_string(SetupRepsInProcess));
  addLatencyMetrics(O, Tm, Host);
  O.add("peak_rss_mb", peakRssMb(RUSAGE_SELF), "MB");
  addCountMetrics(O, Counts);
  std::printf("info spill_ops %llu count (static spill + reload)\n",
              static_cast<unsigned long long>(Counts.SpillOps));
}

/// Per-layer numbers: self time per pass over the workload (median over
/// passes), plus the counts of the traced check pass.
struct LayerTimes {
  std::vector<std::map<std::string, uint64_t>> PerPass;

  double ns(const std::string &Name) const {
    std::vector<double> V;
    for (const auto &P : PerPass) {
      auto It = P.find(Name);
      V.push_back(It == P.end() ? 0.0 : static_cast<double>(It->second));
    }
    return median(V);
  }
};

void addLayerMetrics(Outcome &O, const LayerTimes &L, const LayerCounts &C,
                     const OutputCounts &Out) {
  auto Ns = [&](const char *Metric, const char *Span) {
    O.add(Metric, L.ns(Span), "ns");
  };
  auto Count = [&](const char *Metric, double V, const char *Unit = "count") {
    O.add(Metric, V, Unit);
  };
  Ns("ir.parse_ns", "ir.parse");
  Ns("ir.verify_ns", "ir.verify");
  Ns("ir.print_ns", "ir.print");
  Count("ir.input_insts", static_cast<double>(C.InputInsts));
  Ns("analysis.split_edges_ns", "analysis.split_edges");
  Ns("analysis.dominators_ns", "analysis.dominators");
  Ns("analysis.liveness_ns", "analysis.liveness");
  Count("analysis.liveness_bytes", static_cast<double>(C.LivenessBytes),
        "bytes");
  Ns("ssa.build_ns", "ssa.build");
  Count("ssa.phis", static_cast<double>(C.Phis));
  Count("ssa.copies_folded", static_cast<double>(C.CopiesFolded));
  Count("ssa.peak_bytes", static_cast<double>(C.SsaPeakBytes), "bytes");
  Ns("coalesce.partition_ns", "coalesce.partition");
  Ns("coalesce.rewrite_ns", "coalesce.rewrite");
  Count("coalesce.peak_bytes", static_cast<double>(C.CoalescePeakBytes),
        "bytes");
  Count("coalesce.copies_inserted", static_cast<double>(C.CopiesInserted));
  Count("coalesce.filter_rejections",
        static_cast<double>(C.FilterRejections));
  Count("coalesce.evictions", static_cast<double>(C.Evictions));
  uint64_t Candidates = C.UnionsAccepted + C.FilterRejections;
  Count("coalesce.merge_accept_ratio",
        Candidates ? static_cast<double>(C.UnionsAccepted) / Candidates : 0.0,
        "ratio");
  Ns("opt.sccp_ns", "opt.sccp");
  Ns("opt.adce_ns", "opt.adce");
  Ns("opt.pre_ns", "opt.pre");
  Ns("opt.redominate_ns", "opt.redominate");
  Count("opt.insts_removed", static_cast<double>(C.InstsRemoved));
  Count("opt.pre_hoisted", static_cast<double>(C.PreHoisted));
  Ns("regalloc.spill_rewrite_ns", "regalloc.spill_rewrite");
  Count("regalloc.rounds_per_fn",
        C.Functions ? static_cast<double>(C.RegallocRounds) / C.Functions
                    : 0.0,
        "ratio");
  Count("regalloc.ranges_split", static_cast<double>(C.RangesSplit));
  Count("regalloc.spill_ops", static_cast<double>(Out.SpillOps));
  Count("interp.run_ns", static_cast<double>(Out.InterpNs), "ns");
  Count("interp.steps", static_cast<double>(Out.DynamicInsts));
  double Window = L.ns("analysis.dominators") + L.ns("ssa.build") +
                  L.ns("analysis.liveness") + L.ns("coalesce.partition") +
                  L.ns("coalesce.rewrite");
  Count("pipeline.window_ns", Window, "ns");
}

/// The daemon's layers; the in-process workloads bypass them and report 0.
const std::pair<const char *, const char *> DaemonLayerMetrics[] = {
    {"server.round_trip_ns", "ns"},
    {"server.wait_ns", "ns"},
    {"server.json_parse_ns", "ns"},
    {"server.hash_ns", "ns"},
    {"server.report_json_ns", "ns"},
    {"server.cache_text_hit_ratio", "ratio"},
    {"server.cache_struct_hit_ratio", "ratio"},
    {"server.overloaded", "count"},
    {"service.compile_ns", "ns"}};

/// The duration of the unit span at \p Root less its harness-only
/// (`bench.*`) children: the sum of the layers' self times.
double tracedUnitNs(const Tracer &T, size_t Root) {
  const std::vector<Span> &S = T.spans();
  uint64_t Ns = S[Root].End - S[Root].Start;
  for (size_t K = Root + 1; K != S.size(); ++K)
    if (S[K].Parent == static_cast<int>(Root) &&
        std::strncmp(S[K].Name, "bench.", 6) == 0)
      Ns -= S[K].End - S[K].Start;
  return static_cast<double>(Ns);
}

/// The traced unit time of every top-level unit span in \p T, summed.
double unitSpanNs(const Tracer &T) {
  auto IsUnit = [&](int K) {
    return K >= 0 && T.spans()[K].Parent < 0 &&
           std::strcmp(T.spans()[K].Name, "unit") == 0;
  };
  double Ns = 0;
  for (size_t K = 0; K != T.spans().size(); ++K) {
    const Span &S = T.spans()[K];
    if (IsUnit(static_cast<int>(K)))
      Ns += static_cast<double>(S.End - S.Start);
    else if (IsUnit(S.Parent) && std::strncmp(S.Name, "bench.", 6) == 0)
      Ns -= static_cast<double>(S.End - S.Start);
  }
  return Ns;
}

/// Every span name's self time per pass and its share of \p PassNs.
void printBreakdown(const LayerTimes &Times, double PassNs) {
  std::set<std::string> Names;
  for (const auto &P : Times.PerPass)
    for (const auto &[N, V] : P)
      Names.insert(N);
  std::vector<std::pair<double, std::string>> Rows;
  for (const std::string &N : Names)
    Rows.push_back({Times.ns(N), N});
  std::sort(Rows.rbegin(), Rows.rend());
  for (const auto &[Ns, N] : Rows)
    std::printf("breakdown   %-24s %12.0f ns %6.2f%%\n",
                N == "unit" ? "unit (harness glue)" : N.c_str(), Ns,
                PassNs > 0 ? 100 * Ns / PassNs : 0.0);
}

/// One unit's untraced and traced times, run back to back, alternating
/// which goes first. The second compile of a unit finds it warm in the
/// caches and can take half the first's time, and the host's speed drifts
/// between passes, so the traced time is taken relative to the untraced
/// one of the same pair: the geometric mean of the median traced/untraced
/// ratio of the pairs where the untraced compile ran first ([0]) and of
/// those where it ran second ([1]). The untraced time is the mean of the
/// medians of its first-run and second-run samples.
struct PairedTimes {
  std::array<std::vector<double>, 2> UntracedNs, Ratio;

  size_t pairs() const { return Ratio[0].size() + Ratio[1].size(); }
  bool complete() const {
    return std::min(Ratio[0].size(), Ratio[1].size()) >= TraceMinSamples;
  }
  double untraced() const {
    return (median(UntracedNs[0]) + median(UntracedNs[1])) / 2;
  }
  double traced() const {
    return untraced() * std::sqrt(median(Ratio[0]) * median(Ratio[1]));
  }
};

/// Compiles one unit untraced and traced, in the order \p UntracedFirst
/// says, and records both times in \p Times. Returns the traced output.
CompileOutput runPaired(const std::string &Text, const Config &Cfg,
                        Tracer &T, unsigned UnitId, LayerCounts &Counts,
                        bool UntracedFirst, PairedTimes &Times) {
  CompileOutput Traced;
  double UntracedNs = 0, TracedNs = 0;
  auto RunUntraced = [&] {
    uint64_t T0 = nowNs();
    compileUntraced(Text, Cfg);
    UntracedNs = static_cast<double>(nowNs() - T0);
  };
  auto RunTraced = [&] {
    size_t Root = T.spans().size();
    Traced = compileTraced(Text, Cfg, T, UnitId, Counts);
    TracedNs = tracedUnitNs(T, Root);
  };
  if (UntracedFirst) {
    RunUntraced();
    RunTraced();
  } else {
    RunTraced();
    RunUntraced();
  }
  unsigned Order = UntracedFirst ? 0 : 1;
  Times.UntracedNs[Order].push_back(UntracedNs);
  Times.Ratio[Order].push_back(TracedNs / UntracedNs);
  return Traced;
}

/// The faithful-decomposition time check over named units.
struct DecompositionSummary {
  double SumUntraced = 0, SumTraced = 0, Worst = 0;
  std::string WorstName;
  size_t Checked = 0;
};

/// Each unit's traced time, less the harness's own counters, is its
/// layers' self times summed; it must agree with the untraced time per unit
/// and over all units. A unit with fewer than TraceMinSamples pairs in
/// either order is not checked.
DecompositionSummary
checkDecomposition(const std::vector<std::pair<std::string, const PairedTimes *>>
                       &Units,
                   Outcome &O) {
  DecompositionSummary D;
  for (const auto &[Name, Times] : Units) {
    if (!Times->complete())
      continue;
    double U = Times->untraced(), Tr = Times->traced();
    D.SumUntraced += U;
    D.SumTraced += Tr;
    ++D.Checked;
    if (std::fabs(Tr - U) / U > D.Worst) {
      D.Worst = std::fabs(Tr - U) / U;
      D.WorstName = Name;
    }
    ++O.Attempted;
    if (std::fabs(Tr - U) > TraceTolRel * U + TraceTolAbsNs)
      O.fail(Name + ": layer self times sum to " + std::to_string(Tr / 1e6) +
             " ms, untraced unit is " + std::to_string(U / 1e6) + " ms");
  }
  ++O.Attempted;
  if (std::fabs(D.SumTraced - D.SumUntraced) > TraceTolTotal * D.SumUntraced)
    O.fail("layer self times over the workload sum to " +
           std::to_string(D.SumTraced / 1e6) + " ms, untraced " +
           std::to_string(D.SumUntraced / 1e6) + " ms");
  return D;
}

void printDecomposition(const DecompositionSummary &D) {
  std::printf("breakdown   per-unit medians of %zu units sum to %.3f ms "
              "traced, %.3f ms untraced (tolerance %.0f%%); worst unit %s "
              "off by %.1f%% (tolerance %.0f%% + %.0f us)\n",
              D.Checked, D.SumTraced / 1e6, D.SumUntraced / 1e6,
              TraceTolTotal * 100, D.WorstName.c_str(), D.Worst * 100,
              TraceTolRel * 100, TraceTolAbsNs / 1e3);
}

/// Runs the traced decomposition of every unit and its untraced compile,
/// alternating which goes first, and checks that they agree.
void runInProcessTraced(const Options &Opt, Outcome &O) {
  InProcess W = inProcessWorkload(Opt.Workload, 1.0);
  std::vector<Unit> Units;
  setUpUnits(W, Opt.Seed, 1, Units, O);
  std::vector<std::string> Expected;
  OutputCounts Counts;
  checkPass(Units, W.Cfg, Expected, Counts, O);

  Tracer T;
  LayerCounts Layers;
  for (size_t I = 0; I != Units.size(); ++I) {
    if (Expected[I].empty())
      continue;
    CompileOutput Untraced = compileUntraced(Units[I].Text, W.Cfg);
    CompileOutput Traced =
        compileTraced(Units[I].Text, W.Cfg, T, static_cast<unsigned>(I),
                      Layers);
    ++O.Attempted;
    if (!sameOutput(Untraced, Traced))
      O.fail(Units[I].Name +
             ": traced decomposition differs from runPipeline's output");
  }

  LayerTimes Times;
  std::vector<PairedTimes> UnitTimes(Units.size());
  std::vector<double> UnitPassNs;
  uint64_t Start = nowNs();
  unsigned Pass = 0;
  LayerCounts Ignored;
  do {
    T.clear();
    for (size_t I = 0; I != Units.size(); ++I) {
      if (Expected[I].empty())
        continue;
      CompileOutput Out = runPaired(Units[I].Text, W.Cfg, T,
                                    static_cast<unsigned>(I), Ignored,
                                    (Pass + I) % 2 == 0, UnitTimes[I]);
      if (!Out.Ok || Out.Text != Expected[I])
        O.fail(Units[I].Name + ": traced output differs");
    }
    Times.PerPass.emplace_back();
    T.addSelfTimes(Times.PerPass.back());
    UnitPassNs.push_back(unitSpanNs(T));
    ++Pass;
  } while (secondsSince(Start) < Opt.Seconds || Pass < 2 * TraceMinSamples);

  std::vector<std::pair<std::string, const PairedTimes *>> Named;
  for (size_t I = 0; I != Units.size(); ++I)
    if (!Expected[I].empty())
      Named.push_back({Units[I].Name, &UnitTimes[I]});
  DecompositionSummary D = checkDecomposition(Named, O);

  addLayerMetrics(O, Times, Layers, Counts);
  O.add("pipeline.unit_ns", median(UnitPassNs), "ns");
  O.add("trace.overhead_ratio",
        D.SumUntraced > 0 ? D.SumTraced / D.SumUntraced - 1 : 0.0, "ratio",
        "traced / untraced - 1 over per-unit medians");
  for (const auto &[Name, MetricUnit] : DaemonLayerMetrics)
    O.add(Name, 0.0, MetricUnit);

  double PassNs = median(UnitPassNs);
  std::printf("breakdown %s seed %llu: %u passes, %zu units; traced unit "
              "time %.3f ms per pass\n",
              Opt.Workload.c_str(), static_cast<unsigned long long>(Opt.Seed),
              Pass, Units.size(), PassNs / 1e6);
  printDecomposition(D);
  printBreakdown(Times, PassNs);
  std::vector<std::pair<double, size_t>> Slowest;
  for (size_t I = 0; I != Units.size(); ++I)
    if (!Expected[I].empty())
      Slowest.push_back({UnitTimes[I].untraced(), I});
  std::sort(Slowest.rbegin(), Slowest.rend());
  Slowest.resize(std::min<size_t>(Slowest.size(), 5));
  for (const auto &[Ns, I] : Slowest)
    std::printf("breakdown   slowest unit %-16s %9.3f ms untraced, "
                "%9.3f ms traced, %u input insts\n",
                Units[I].Name.c_str(), Ns / 1e6, UnitTimes[I].traced() / 1e6,
                Units[I].InputInsts);
  T.writeJson(Opt.OutDir + "/trace-" + Opt.Workload + "-" +
              std::to_string(Opt.Seed) + ".json");
}

//===-- Daemon ------------------------------------------------------------===//

enum class ReqKind { Fresh, ExactRepeat, AlphaRepeat };

struct DaemonInputs {
  std::vector<Unit> Pool;
  std::vector<Request> Requests;
  std::vector<ReqKind> Kinds;
  /// Texts per request (the unit's own or an alpha-variant).
  std::vector<std::string> Texts;
};

/// The daemon's traffic. Which units are requested, and how often in which
/// variant, is fixed (a Zipf(1) draw over paperSuite's routines); the seed
/// renames every text and shuffles the request order, like the in-process
/// workloads' seeds.
DaemonInputs daemonInputs(uint64_t Seed, unsigned PoolSize, unsigned Count,
                          Outcome &O) {
  DaemonInputs D;
  D.Pool = paperUnits(0, PoolSize);
  std::string Suffix = seedSuffix(Seed);
  for (Unit &U : D.Pool) {
    if (Seed)
      U.Text = alphaRename(U.Text, Suffix);
    std::string Error;
    if (!computeReference(U, Error))
      O.fail(U.Name + ": bad input: " + Error);
  }
  SplitMix64 Draw(0xdae3011ull);
  std::vector<unsigned> Rank(PoolSize);
  for (unsigned I = 0; I != PoolSize; ++I)
    Rank[I] = I;
  for (unsigned I = PoolSize; I > 1; --I)
    std::swap(Rank[I - 1], Rank[Draw.nextBelow(I)]);
  std::vector<double> Cdf(PoolSize);
  double Sum = 0;
  for (unsigned I = 0; I != PoolSize; ++I)
    Cdf[I] = Sum += 1.0 / (I + 1);
  std::vector<std::pair<unsigned, unsigned>> Picks;
  for (unsigned R = 0; R != Count; ++R) {
    double X =
        static_cast<double>(Draw.next() >> 11) / 9007199254740992.0 * Sum;
    unsigned Idx =
        Rank[std::lower_bound(Cdf.begin(), Cdf.end(), X) - Cdf.begin()];
    unsigned Variant =
        Draw.chancePercent(DaemonVariantPercent)
            ? 1 + static_cast<unsigned>(Draw.nextBelow(DaemonVariants))
            : 0;
    Picks.push_back({Idx, Variant});
  }
  if (Seed) {
    SplitMix64 Order(Seed);
    for (size_t I = Picks.size(); I > 1; --I)
      std::swap(Picks[I - 1], Picks[Order.nextBelow(I)]);
  }

  std::set<std::pair<unsigned, unsigned>> SeenText;
  std::unordered_set<unsigned> SeenUnit;
  for (unsigned R = 0; R != Count; ++R) {
    auto [Idx, Variant] = Picks[R];
    const Unit &U = D.Pool[Idx];
    std::string Text =
        Variant ? alphaRename(U.Text, "_v" + std::to_string(Variant)) : U.Text;
    Request Req{Idx, std::string()};
    Req.Line = "{\"op\":\"compile\",\"id\":" + std::to_string(R) +
               ",\"name\":";
    appendJsonEscaped(Req.Line, U.Name);
    Req.Line += ",\"index\":" + std::to_string(R) + ",\"source\":";
    appendJsonEscaped(Req.Line, Text);
    Req.Line += ",\"rewritten\":true}\n";
    D.Kinds.push_back(SeenText.count({Idx, Variant}) ? ReqKind::ExactRepeat
                      : SeenUnit.count(Idx)          ? ReqKind::AlphaRepeat
                                                     : ReqKind::Fresh);
    SeenText.insert({Idx, Variant});
    SeenUnit.insert(Idx);
    D.Requests.push_back(std::move(Req));
    D.Texts.push_back(std::move(Text));
  }
  return D;
}

/// Client-side tally and the per-request outcome of one pass.
struct DaemonTally {
  uint64_t Accepted = 0, Hits = 0, Misses = 0, Failed = 0, Overloaded = 0;
};

struct DaemonClient {
  const DaemonInputs &In;
  std::vector<std::unique_ptr<Connection>> Conns;
  DaemonTally Tally;
  /// Output texts already verified, per pool unit, with their counts.
  std::vector<std::unordered_map<std::string, OutputCounts>> Verified;
  std::vector<OutputCounts> UnitCounts;

  explicit DaemonClient(const DaemonInputs &In)
      : In(In), Verified(In.Pool.size()), UnitCounts(In.Pool.size()) {}

  bool connect(const std::string &Socket, unsigned N, std::string &Error) {
    for (unsigned I = 0; I != N; ++I) {
      int Fd = connectUnix(Socket);
      if (Fd < 0) {
        Error = "cannot connect to " + Socket;
        return false;
      }
      Conns.push_back(std::make_unique<Connection>(Fd));
    }
    return true;
  }

  /// Checks one response to request \p R. Returns false (and records the
  /// failure) when it is wrong.
  bool checkResponse(unsigned R, const json::Value &V, bool &Cached,
                     Outcome &O) {
    const Unit &U = In.Pool[In.Requests[R].UnitIdx];
    const json::Value *Unit = V.find("unit");
    const json::Value *Text = V.find("rewritten");
    Cached = V.boolOr("cached", false);
    (Cached ? Tally.Hits : Tally.Misses) += 1;
    if (!Unit || Unit->strOr("status", "") != "ok" || !Text ||
        Text->kind() != json::Value::Kind::Str) {
      ++Tally.Failed;
      O.fail(U.Name + ": server reported " +
             (Unit ? Unit->strOr("status", "?") : std::string("no unit")));
      return false;
    }
    auto &Seen = Verified[In.Requests[R].UnitIdx];
    if (Seen.count(Text->str()))
      return true;
    OutputCounts C;
    std::string Error;
    if (!checkOutput(U, Text->str(), C, Error)) {
      O.fail(U.Name + ": " + Error);
      return false;
    }
    UnitCounts[In.Requests[R].UnitIdx] = C;
    Seen.emplace(Text->str(), C);
    return true;
  }

  /// Sends every request once over the connections, one outstanding per
  /// connection. Records round trips (ns) and cached flags per request.
  bool runPass(std::vector<double> &RoundTripNs, std::vector<char> &CachedOut,
               Outcome &O, std::string &Error) {
    size_t N = In.Requests.size(), Next = 0, Done = 0;
    RoundTripNs.assign(N, 0);
    CachedOut.assign(N, 0);
    std::vector<long> Current(Conns.size(), -1);
    std::vector<uint64_t> SentAt(Conns.size(), 0);
    std::vector<unsigned> Retries(N, 0);
    // A retried request keeps its first send time: its round trip includes
    // the back-off.
    auto Send = [&](size_t C, size_t R, bool Retry) {
      Current[C] = static_cast<long>(R);
      if (!Retry)
        SentAt[C] = nowNs();
      return Conns[C]->sendAll(In.Requests[R].Line);
    };
    for (size_t C = 0; C != Conns.size() && Next != N; ++C)
      if (!Send(C, Next++, false)) {
        Error = "send failed";
        return false;
      }
    std::vector<pollfd> Fds(Conns.size());
    while (Done != N) {
      for (size_t C = 0; C != Conns.size(); ++C)
        Fds[C] = {Conns[C]->fd(),
                  static_cast<short>(Current[C] >= 0 ? POLLIN : 0), 0};
      if (::poll(Fds.data(), Fds.size(), 60'000) <= 0) {
        Error = "no response from the server within 60 s";
        return false;
      }
      // Stamp every arrival before checking any, so that checking one
      // response does not count in another's round trip.
      struct Arrival {
        size_t Conn;
        uint64_t At;
        std::string Line;
      };
      std::vector<Arrival> Arrived;
      for (size_t C = 0; C != Conns.size(); ++C) {
        if (!(Fds[C].revents & (POLLIN | POLLHUP | POLLERR)))
          continue;
        std::vector<std::string> Lines;
        if (!Conns[C]->readLines(Lines)) {
          Error = "server closed a connection";
          return false;
        }
        uint64_t At = nowNs();
        for (std::string &Line : Lines)
          Arrived.push_back({C, At, std::move(Line)});
      }
      for (const Arrival &A : Arrived) {
        size_t C = A.Conn;
        uint64_t Rtt = A.At - SentAt[C];
        size_t R = static_cast<size_t>(Current[C]);
        json::Value V;
        std::string JsonError;
        if (!json::parse(A.Line, V, JsonError) ||
            V.intOr("id", -1) != static_cast<int64_t>(R)) {
          Error = "malformed or uncorrelated response: " + JsonError;
          return false;
        }
        std::string Status = V.strOr("status", "");
        if (Status == "overloaded") {
          ++Tally.Overloaded;
          if (++Retries[R] > DaemonMaxRetries) {
            O.fail("request " + std::to_string(R) +
                   " still overloaded after retries");
          } else {
            std::this_thread::sleep_for(std::chrono::microseconds(50));
            if (!Send(C, R, true)) {
              Error = "send failed";
              return false;
            }
            continue;
          }
        } else {
          ++Tally.Accepted;
          RoundTripNs[R] = static_cast<double>(Rtt);
          bool Cached = false;
          if (Status != "ok") {
            ++Tally.Failed;
            O.fail("request " + std::to_string(R) + ": " + A.Line);
          } else {
            checkResponse(static_cast<unsigned>(R), V, Cached, O);
          }
          CachedOut[R] = Cached;
        }
        ++Done;
        Current[C] = -1;
        if (Next != N && !Send(C, Next++, false)) {
          Error = "send failed";
          return false;
        }
      }
    }
    return true;
  }
};

DaemonOptions daemonOptions(const Options &Opt, unsigned Id) {
  unsigned Cpus = std::max(1u, std::thread::hardware_concurrency());
  DaemonOptions D;
  D.ServerPath = Opt.ServerPath;
  D.SocketPath = Opt.OutDir + "/d" + std::to_string(::getpid()) + "-" +
                 std::to_string(Id) + ".sock";
  // fcc-served runs one reader thread per connection besides its workers.
  // One connection more than workers keeps a request queued for every
  // worker, and the client thread, the readers and the workers together
  // stay within the processors (2 * Jobs + 2 <= nproc from 4 up), so no
  // thread of the measured loop waits for a processor.
  D.Jobs = std::max(1u, (Cpus - std::min(Cpus, 2u)) / 2);
  D.Connections = D.Jobs + 1;
  D.CacheBytes = DaemonCacheBytes;
  return D;
}

/// Compares the server's stats counters with the client's own tally.
bool compareStats(const std::string &Socket, const DaemonTally &T,
                  Outcome &O) {
  int Fd = connectUnix(Socket);
  if (Fd < 0) {
    O.fail("cannot connect for stats");
    return false;
  }
  Connection C(Fd);
  std::string Reply, Error;
  json::Value V;
  if (!C.roundTrip("{\"op\":\"stats\",\"id\":1}\n", Reply) ||
      !json::parse(Reply, V, Error) || !V.find("stats")) {
    O.fail("stats op failed: " + Reply);
    return false;
  }
  const json::Value &S = *V.find("stats");
  struct {
    const char *Key;
    uint64_t Client;
  } Rows[] = {{"accepted", T.Accepted},
              {"hits", T.Hits},
              {"misses", T.Misses},
              {"failed", T.Failed},
              {"rejected", T.Overloaded}};
  bool Ok = true;
  for (const auto &R : Rows) {
    int64_t Server = S.intOr(R.Key, -1);
    std::printf("info stats %-9s server %lld client %llu\n", R.Key,
                static_cast<long long>(Server),
                static_cast<unsigned long long>(R.Client));
    if (Server != static_cast<int64_t>(R.Client)) {
      O.fail(std::string("server stats '") + R.Key + "' disagree with the "
             "client's tally");
      Ok = false;
    }
  }
  std::printf("info cache bytes %lld entries %lld evictions %lld "
              "insertions %lld\n",
              static_cast<long long>(S.intOr("cache_bytes", -1)),
              static_cast<long long>(S.intOr("cache_entries", -1)),
              static_cast<long long>(S.intOr("evictions", -1)),
              static_cast<long long>(S.intOr("insertions", -1)));
  return Ok;
}

/// Starts the server \p Reps times with fresh inputs each time (stopping
/// all but the last); returns the median set-up time.
std::optional<double> setUpDaemon(const Options &Opt, unsigned Reps,
                                  DaemonInputs &In, ServerProcess &Server,
                                  DaemonOptions &DOpts, Outcome &O) {
  std::vector<double> Times;
  HostSpeed Host(/*Wall=*/true);
  Host.mark();
  for (unsigned R = 0; R != Reps; ++R) {
    std::string Error;
    if (R != 0 && !Server.stop(Error)) {
      std::fprintf(stderr, "perfbench: %s\n", Error.c_str());
      return std::nullopt;
    }
    uint64_t T0 = nowNs();
    In = daemonInputs(Opt.Seed, DaemonPool, DaemonRequests, O);
    DOpts = daemonOptions(Opt, R);
    if (!Server.start(DOpts, Error)) {
      std::fprintf(stderr, "perfbench: %s\n", Error.c_str());
      return std::nullopt;
    }
    double Seconds = secondsSince(T0);
    Host.mark();
    Times.push_back(Seconds / Host.last());
  }
  return median(Times);
}

int runDaemon(const Options &Opt, Outcome &O) {
  DaemonInputs In;
  ServerProcess Server;
  DaemonOptions DOpts;
  std::optional<double> Setup = setUpDaemon(
      Opt, Opt.Trace ? 1 : SetupRepsDaemon, In, Server, DOpts, O);
  if (!Setup)
    return 2;
  DaemonClient Client(In);
  std::string Error;
  if (!Client.connect(DOpts.SocketPath, DOpts.Connections, Error)) {
    std::fprintf(stderr, "perfbench: %s\n", Error.c_str());
    return 2;
  }

  // Pass 0 fills the cache and checks every output; the timed passes run
  // in the steady state it leaves.
  std::vector<double> Rtt;
  std::vector<char> Cached;
  O.Attempted += In.Requests.size();
  if (!Client.runPass(Rtt, Cached, O, Error)) {
    std::fprintf(stderr, "perfbench: %s\n", Error.c_str());
    return 2;
  }
  OutputCounts Counts;
  uint64_t RequestInsts = 0;
  for (const Request &R : In.Requests) {
    Counts.add(Client.UnitCounts[R.UnitIdx]);
    RequestInsts += In.Pool[R.UnitIdx].InputInsts;
  }

  Timings Tm;
  HostSpeed Host(/*Wall=*/true);
  Host.mark();
  // Round trips per request, split by the server's cached flag.
  std::vector<std::array<std::vector<double>, 2>> RttByRequest(
      In.Requests.size());
  uint64_t Hits[3] = {0, 0, 0}, Asked[3] = {0, 0, 0};
  double SocketSeconds = Opt.Trace ? Opt.Seconds / 2 : Opt.Seconds;
  unsigned SocketPasses = 0;
  uint64_t Start = nowNs();
  do {
    ++SocketPasses;
    O.Attempted += In.Requests.size();
    uint64_t T0 = nowNs();
    if (!Client.runPass(Rtt, Cached, O, Error)) {
      std::fprintf(stderr, "perfbench: %s\n", Error.c_str());
      return 2;
    }
    double PassNs = static_cast<double>(nowNs() - T0);
    Host.mark();
    double Raw = static_cast<double>(RequestInsts) / (PassNs / 1e9) / 1e3;
    Tm.RawThroughput.push_back(Raw);
    Tm.Throughput.push_back(Raw * Host.last());
    for (size_t R = 0; R != Rtt.size(); ++R) {
      Tm.LatencyMs.push_back(Rtt[R] / Host.last() / 1e6);
      RttByRequest[R][Cached[R] ? 1 : 0].push_back(Rtt[R]);
      unsigned K = static_cast<unsigned>(In.Kinds[R]);
      ++Asked[K];
      Hits[K] += Cached[R];
    }
  } while (secondsSince(Start) < SocketSeconds);

  compareStats(DOpts.SocketPath, Client.Tally, O);
  Client.Conns.clear();
  if (!Server.stop(Error)) {
    O.fail(Error);
  }

  if (!Opt.Trace) {
    O.add("setup_s", *Setup, "s",
          "median of " + std::to_string(SetupRepsDaemon) +
              " (inputs + server start)");
    addLatencyMetrics(O, Tm, Host);
    O.add("peak_rss_mb", peakRssMb(RUSAGE_CHILDREN), "MB", "fcc-served");
    addCountMetrics(O, Counts);
    std::printf("info connections %u, server jobs %u, cache %llu bytes, "
                "overloaded %llu\n",
                DOpts.Connections, DOpts.Jobs,
                static_cast<unsigned long long>(DOpts.CacheBytes),
                static_cast<unsigned long long>(Client.Tally.Overloaded));
    return 0;
  }

  // Traced: replay the request list in-process, one request at a time,
  // through the calls the server makes, each in its own span. With one
  // worker the server also answers in request order, so the replay's cache
  // sees the same sequence; requests whose replayed hit or miss still
  // differs from the server's are left out of server.wait_ns and counted.
  ServiceOptions SO;
  SO.Pipeline = PipelineKind::New;
  SO.WantRewritten = true;
  ResultCache::Options CO;
  CO.ByteBudget = DOpts.CacheBytes;
  ResultCache Cache(CO);
  SO.Cache = &Cache;
  CompilationService Service(SO);
  Tracer T;
  LayerTimes Times;
  LayerCounts Layers, Ignored;
  Config Cfg;
  // Replayed compileOne times per request, split by FromCache; pass 0 runs
  // on a cold cache, like the socket pass that is not timed, and is left
  // out.
  std::vector<std::array<std::vector<double>, 2>> CompileNs(
      In.Requests.size());
  // The misses' untraced and traced compiles, per text.
  std::map<std::string, std::pair<std::string, PairedTimes>> MissTimes;
  unsigned Pass = 0;
  Start = nowNs();
  std::vector<double> UnitPassNs, ServerPassNs;
  do {
    T.clear();
    double PassServerNs = 0;
    for (size_t R = 0; R != In.Requests.size(); ++R) {
      const Request &Req = In.Requests[R];
      UnitReport Report;
      uint64_t Inserted = Cache.occupancy().Insertions;
      uint64_t RequestStart = nowNs();
      {
        SpanScope Root(T, "request", static_cast<unsigned>(R));
        json::Value V;
        std::string JsonError;
        {
          SpanScope S(T, "server.json_parse", static_cast<unsigned>(R));
          json::parse(Req.Line.substr(0, Req.Line.size() - 1), V, JsonError);
        }
        uint64_t T0 = nowNs();
        {
          SpanScope S(T, "service.compile", static_cast<unsigned>(R));
          Report = Service.compileOne(
              WorkUnit::fromSource(V.strOr("name", ""), V.strOr("source", "")),
              static_cast<unsigned>(R), nullptr);
        }
        if (Pass != 0)
          CompileNs[R][Report.FromCache ? 1 : 0].push_back(
              static_cast<double>(nowNs() - T0));
        std::string Out;
        {
          SpanScope S(T, "server.report_json", static_cast<unsigned>(R));
          appendUnitJson(Out, Report, false);
        }
      }
      PassServerNs += static_cast<double>(nowNs() - RequestStart);
      if (Pass == 0) {
        ++O.Attempted;
        const Unit &U = In.Pool[Req.UnitIdx];
        OutputCounts C;
        std::string CheckError;
        if (!Report.ok() || !checkOutput(U, Report.RewrittenText, C, CheckError))
          O.fail(U.Name + ": replayed compileOne output is wrong: " +
                 Report.Error + CheckError);
      }
      // A text-key hit publishes nothing; on every other request
      // compileOne parses the text and hashes it for the structural key (a
      // structural hit adds the text's alias, a miss its result). The hash
      // is timed again on its own, as part of service.compile.
      bool TextHit = Report.FromCache &&
                     Cache.occupancy().Insertions == Inserted;
      if (!TextHit) {
        std::string ParseError;
        std::unique_ptr<Module> M;
        {
          SpanScope S(T, "bench.parse_for_hash", static_cast<unsigned>(R));
          M = parseModule(In.Texts[R], ParseError);
        }
        if (M) {
          SpanScope S(T, "server.hash", static_cast<unsigned>(R));
          Digest128 D = structuralHash(*M);
          (void)D;
        }
      }
      // The work of a miss, attributed to the compiler's layers.
      if (!Report.FromCache) {
        unsigned Id = static_cast<unsigned>(R);
        if (Pass == 0) {
          ++O.Attempted;
          Tracer Unkept;
          if (!sameOutput(compileUntraced(In.Texts[R], Cfg),
                          compileTraced(In.Texts[R], Cfg, Unkept, Id, Layers)))
            O.fail(In.Pool[Req.UnitIdx].Name +
                   ": traced decomposition differs from runPipeline's");
        }
        auto &[Name, Paired] = MissTimes[In.Texts[R]];
        if (Name.empty())
          Name = In.Pool[Req.UnitIdx].Name + " (request " +
                 std::to_string(R) + ")";
        CompileOutput Out = runPaired(In.Texts[R], Cfg, T, Id, Ignored,
                                      Paired.pairs() % 2 == 0, Paired);
        if (!Out.Ok)
          O.fail(Name + ": traced compile failed: " + Out.Error);
      }
    }
    Times.PerPass.emplace_back();
    T.addSelfTimes(Times.PerPass.back());
    UnitPassNs.push_back(unitSpanNs(T));
    ServerPassNs.push_back(PassServerNs);
    ++Pass;
  } while (secondsSince(Start) < Opt.Seconds / 2 || Pass < 2);

  std::vector<std::pair<std::string, const PairedTimes *>> Named;
  for (const auto &[Text, Entry] : MissTimes)
    Named.push_back({Entry.first, &Entry.second});
  DecompositionSummary D = checkDecomposition(Named, O);

  addLayerMetrics(O, Times, Layers, Counts);
  // A request's round trip not spent in compileOne: socket, queue, pool.
  // Each request is compared under the cache outcome the server gave it
  // most often, where the replay saw the same outcome.
  double RoundTrip = 0, Wait = 0;
  size_t Matched = 0;
  for (size_t R = 0; R != In.Requests.size(); ++R) {
    const auto &ByFlag = RttByRequest[R];
    std::vector<double> All(ByFlag[0]);
    All.insert(All.end(), ByFlag[1].begin(), ByFlag[1].end());
    RoundTrip += median(All);
    unsigned Flag = ByFlag[1].size() > ByFlag[0].size() ? 1 : 0;
    if (CompileNs[R][Flag].empty())
      continue;
    ++Matched;
    Wait += median(ByFlag[Flag]) - median(CompileNs[R][Flag]);
  }
  O.add("pipeline.unit_ns", median(UnitPassNs), "ns");
  O.add("trace.overhead_ratio",
        D.SumUntraced > 0 ? D.SumTraced / D.SumUntraced - 1 : 0.0, "ratio",
        "traced / untraced - 1 over the replayed misses' medians");
  auto Ratio = [&](ReqKind K) {
    unsigned I = static_cast<unsigned>(K);
    return Asked[I] ? static_cast<double>(Hits[I]) / Asked[I] : 0.0;
  };
  O.add("server.round_trip_ns", RoundTrip, "ns", "sum of per-request medians");
  O.add("server.wait_ns", Wait, "ns",
        std::to_string(Matched) + " of " + std::to_string(In.Requests.size()) +
            " requests with the server's cache outcome");
  std::printf("info requests whose replayed cache outcome differs from the "
              "server's: %zu of %zu\n",
              In.Requests.size() - Matched, In.Requests.size());
  O.add("server.json_parse_ns", Times.ns("server.json_parse"), "ns");
  O.add("server.hash_ns", Times.ns("server.hash"), "ns");
  O.add("server.report_json_ns", Times.ns("server.report_json"), "ns");
  O.add("server.cache_text_hit_ratio", Ratio(ReqKind::ExactRepeat), "ratio");
  O.add("server.cache_struct_hit_ratio", Ratio(ReqKind::AlphaRepeat),
        "ratio");
  O.add("server.overloaded", static_cast<double>(Client.Tally.Overloaded),
        "count");
  O.add("service.compile_ns", Times.ns("service.compile"), "ns");
  double ServerNs = median(ServerPassNs);
  std::printf("breakdown daemon seed %llu: %u socket passes, %u replay "
              "passes of %zu requests; the request spans take %.3f ms per "
              "replay pass, median, and the shares below are of that; "
              "server.hash and the ir, analysis, ssa and coalesce rows break "
              "down parts of service.compile; fresh-request hit ratio "
              "%.4f\n",
              static_cast<unsigned long long>(Opt.Seed), SocketPasses, Pass,
              In.Requests.size(), ServerNs / 1e6, Ratio(ReqKind::Fresh));
  printDecomposition(D);
  printBreakdown(Times, ServerNs);
  T.writeJson(Opt.OutDir + "/trace-daemon-" + std::to_string(Opt.Seed) +
              ".json");
  return 0;
}

//===-- Self-test ---------------------------------------------------------===//

/// Each workload at a tiny size, twice: the count metrics must be equal.
/// Seed 0 of paper169 must be paperSuite(169), routine for routine.
int selfTest(const Options &Opt) {
  bool Ok = true;
  auto Report = [&](const std::string &What, bool Pass) {
    std::printf("selftest %-44s %s\n", What.c_str(), Pass ? "ok" : "FAILED");
    Ok &= Pass;
  };

  std::vector<Unit> Units = paperUnits(0, 169);
  std::vector<RoutineSpec> Suite = paperSuite(169);
  bool Same = Units.size() == Suite.size();
  for (size_t I = 0; Same && I != Units.size(); ++I) {
    std::unique_ptr<Module> Want = Suite[I].materialize();
    std::string Error;
    std::unique_ptr<Module> Got = parseModule(Units[I].Text, Error);
    Same = Got && Units[I].Name == Suite[I].Name &&
           Units[I].Args == Suite[I].Args &&
           structuralHash(*Got) == structuralHash(*Want) &&
           printModule(*Got) == printModule(*Want);
  }
  Report("paper169 seed 0 is paperSuite(169)", Same);

  for (const char *Name : {"paper169", "big-cfg", "opt-alloc"}) {
    InProcess W = inProcessWorkload(Name, 0.1);
    std::vector<uint64_t> Runs[2];
    for (auto &Run : Runs) {
      Outcome O;
      std::vector<Unit> U;
      setUpUnits(W, 1, 1, U, O);
      std::vector<std::string> Expected;
      OutputCounts C;
      checkPass(U, W.Cfg, Expected, C, O);
      Tracer T;
      LayerCounts L;
      for (const Unit &X : U)
        compileTraced(X.Text, W.Cfg, T, 0, L);
      Run = {O.Failed,         C.StaticCopies,  C.OutputInsts,
             C.SpillOps,       C.DynamicCopies, C.DynamicInsts,
             L.Phis,           L.CopiesFolded,  L.CopiesInserted,
             L.FilterRejections, L.UnionsAccepted, L.InstsRemoved,
             L.RegallocRounds};
    }
    Report(std::string(Name) + " tiny: counts repeat, nothing fails",
           Runs[0] == Runs[1] && Runs[0][0] == 0);
  }

  std::vector<uint64_t> Runs[2];
  for (unsigned K = 0; K != 2; ++K) {
    Outcome O;
    DaemonInputs In = daemonInputs(1, 40, 200, O);
    ServerProcess Server;
    std::string Error;
    DaemonOptions D = daemonOptions(Opt, 100 + K);
    if (!Server.start(D, Error)) {
      std::fprintf(stderr, "perfbench: %s\n", Error.c_str());
      return 2;
    }
    DaemonClient Client(In);
    std::vector<double> Rtt;
    std::vector<char> Cached;
    if (!Client.connect(D.SocketPath, D.Connections, Error) ||
        !Client.runPass(Rtt, Cached, O, Error)) {
      std::fprintf(stderr, "perfbench: %s\n", Error.c_str());
      return 2;
    }
    compareStats(D.SocketPath, Client.Tally, O);
    Client.Conns.clear();
    if (!Server.stop(Error))
      O.fail(Error);
    OutputCounts C;
    for (const Request &R : In.Requests)
      C.add(Client.UnitCounts[R.UnitIdx]);
    Runs[K] = {O.Failed, C.StaticCopies, C.OutputInsts, C.DynamicCopies,
               C.DynamicInsts};
  }
  Report("daemon tiny: counts repeat, stats agree", Runs[0] == Runs[1] &&
                                                        Runs[0][0] == 0);
  return Ok ? 0 : 1;
}

//===-- Entry point -------------------------------------------------------===//

void printResult(const Outcome &O) {
  for (const Metric &M : O.Metrics)
    std::printf("metric %-30s %.9g %s%s%s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str(), M.Note.empty() ? "" : "  # ",
                M.Note.c_str());
  std::printf("info attempted %llu failed %llu failed_ratio %.6g\n",
              static_cast<unsigned long long>(O.Attempted),
              static_cast<unsigned long long>(O.Failed),
              O.Attempted ? static_cast<double>(O.Failed) / O.Attempted : 0.0);
  for (const std::string &P : O.Problems)
    std::printf("problem %s\n", P.c_str());
  std::string Json = "{\"correct\": ";
  Json += O.Failed == 0 ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(O.Attempted);
  Json += ", \"failed\": " + std::to_string(O.Failed);
  Json += ", \"metrics\": {";
  for (size_t I = 0; I != O.Metrics.size(); ++I) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", O.Metrics[I].Value);
    Json += (I ? ", \"" : "\"") + O.Metrics[I].Name + "\": {\"value\": " +
            Buf + ", \"unit\": \"" + O.Metrics[I].Unit + "\"}";
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  std::fflush(stdout);
}

bool parseArgs(int Argc, char **Argv, Options &O) {
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&](std::string &Out) {
      if (I + 1 >= Argc)
        return false;
      Out = Argv[++I];
      return true;
    };
    std::string V;
    if (A == "--selftest") {
      O.SelfTest = true;
    } else if (A == "--workload" && Value(V)) {
      O.Workload = V;
      HaveWorkload = true;
    } else if (A == "--seed" && Value(V)) {
      O.Seed = std::strtoull(V.c_str(), nullptr, 10);
    } else if (A == "--seconds" && Value(V)) {
      O.Seconds = std::strtod(V.c_str(), nullptr);
    } else if (A == "--trace" && Value(V)) {
      O.Trace = V == "1";
    } else if (A == "--out-dir" && Value(V)) {
      O.OutDir = V;
    } else if (A == "--server" && Value(V)) {
      O.ServerPath = V;
    } else {
      std::fprintf(stderr, "perfbench: bad argument '%s'\n", A.c_str());
      return false;
    }
  }
  if (O.SelfTest)
    return true;
  static const char *const Known[] = {"paper169", "big-cfg", "opt-alloc",
                                      "daemon"};
  if (!HaveWorkload || std::find_if(std::begin(Known), std::end(Known),
                                    [&](const char *K) {
                                      return O.Workload == K;
                                    }) == std::end(Known)) {
    std::fprintf(stderr, "perfbench: --workload must be one of paper169, "
                         "big-cfg, opt-alloc, daemon\n");
    return false;
  }
  return O.Seconds > 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opt;
  if (!parseArgs(Argc, Argv, Opt))
    return 2;
  if (Opt.SelfTest)
    return selfTest(Opt);
  Outcome O;
  if (Opt.Workload == "daemon") {
    if (int Rc = runDaemon(Opt, O))
      return Rc;
  } else if (Opt.Trace) {
    runInProcessTraced(Opt, O);
  } else {
    runInProcess(Opt, O);
  }
  printResult(O);
  return O.Failed == 0 ? 0 : 1;
}
