//===- tests/coalesce/ScalingWorkTest.cpp ---------------------------------===//
//
// The eager set check must stay near-linear on the shapes that made the
// full-rescan version quadratic. Instead of timing it, count its work: the
// fast.pairs-checked counter is the number of liveness-backed pair tests,
// which is deterministic. Doubling an input may at most about double it.
//
//===----------------------------------------------------------------------===//

#include "coalesce/FastCoalescer.h"

#include "../common/LargeShapes.h"
#include "analysis/CFGUtils.h"
#include "analysis/DominatorTree.h"
#include "analysis/Liveness.h"
#include "ir/Function.h"
#include "ir/IRParser.h"
#include "ir/Module.h"
#include "ssa/SSABuilder.h"
#include "support/Stats.h"
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>

using namespace fcc;

namespace {

/// Pair tests made by a default (eager) partition of pruned+fold SSA.
uint64_t pairsChecked(const std::string &Text) {
  auto M = parseSingleFunctionOrDie(Text);
  Function &F = *M->functions()[0];
  splitCriticalEdges(F);
  DominatorTree DT(F);
  SSABuildOptions Build;
  Build.FoldCopies = true;
  buildSSA(F, DT, Build);
  Liveness LV(F);
  FastCoalescer Coalescer(F, DT, LV);
  Coalescer.computePartition();
  return Coalescer.stats().PairsChecked;
}

struct Shape {
  const char *Name;
  std::function<std::string(unsigned)> Generate;
  unsigned BaseSize;
};

class ScalingWorkTest : public ::testing::TestWithParam<Shape> {};

TEST_P(ScalingWorkTest, PairsCheckedGrowsAtMostLinearlyPerDoubling) {
  const Shape &S = GetParam();
  uint64_t Prev = 0;
  for (unsigned Size = S.BaseSize; Size <= 4 * S.BaseSize; Size *= 2) {
    uint64_t Pairs = pairsChecked(S.Generate(Size));
    std::printf("%s size %u: %llu pair tests\n", S.Name, Size,
                static_cast<unsigned long long>(Pairs));
    ASSERT_GT(Pairs, 0u) << S.Name << " " << Size;
    if (Prev != 0) {
      EXPECT_LE(static_cast<double>(Pairs), 2.3 * static_cast<double>(Prev))
          << S.Name << ": " << Prev << " pair tests at size " << Size / 2
          << ", " << Pairs << " at " << Size;
    }
    Prev = Pairs;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ScalingWorkTest,
    ::testing::Values(
        Shape{"diamonds", [](unsigned N) { return shapes::diamondChain(N); },
              250},
        Shape{"widejoin", [](unsigned N) { return shapes::wideJoin(N); }, 300},
        Shape{"loopnests", [](unsigned N) { return shapes::loopNests(N, 16); },
              10}),
    [](const ::testing::TestParamInfo<Shape> &Info) {
      return std::string(Info.param.Name);
    });

TEST(ScalingWorkTest, CounterIsRecordedAtRewrite) {
  auto M = parseSingleFunctionOrDie(shapes::diamondChain(8));
  Function &F = *M->functions()[0];
  splitCriticalEdges(F);
  DominatorTree DT(F);
  SSABuildOptions Build;
  Build.FoldCopies = true;
  buildSSA(F, DT, Build);
  Liveness LV(F);
  StatsRegistry Registry;
  Instrumentation Instr;
  Instr.Stats = &Registry;
  FastCoalescerOptions Opts;
  Opts.Instr = &Instr;
  FastCoalesceStats Stats = coalesceSSA(F, DT, LV, Opts);
  EXPECT_GT(Stats.PairsChecked, 0u);
  uint64_t Recorded = 0;
  for (const CounterSnapshot &C : Registry.counters())
    if (C.Name == "fast.pairs-checked")
      Recorded = C.Value;
  EXPECT_EQ(Recorded, Stats.PairsChecked);
}

} // namespace
