//===- tests/analysis/LivenessScalingTest.cpp -----------------------------===//
//
// Liveness memory must grow with the live ranges, not with blocks times
// variables. bytes() is deterministic, so instead of measuring memory the
// test doubles each large CFG shape three times and demands that the
// committed tables at most about double with it. A blocks x variables
// matrix grows about 4x per doubling on all three shapes.
//
//===----------------------------------------------------------------------===//

#include "analysis/Liveness.h"

#include "../common/LargeShapes.h"
#include "analysis/CFGUtils.h"
#include "analysis/DominatorTree.h"
#include "ir/Function.h"
#include "ir/IRParser.h"
#include "ir/Module.h"
#include "ssa/SSABuilder.h"
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <string>

using namespace fcc;

namespace {

/// bytes() of the liveness the pipeline computes: over pruned+fold SSA.
size_t livenessBytes(const std::string &Text) {
  auto M = parseSingleFunctionOrDie(Text);
  Function &F = *M->functions()[0];
  splitCriticalEdges(F);
  DominatorTree DT(F);
  SSABuildOptions Build;
  Build.FoldCopies = true;
  buildSSA(F, DT, Build);
  return Liveness(F).bytes();
}

struct Shape {
  const char *Name;
  std::function<std::string(unsigned)> Generate;
  unsigned BaseSize;
};

class LivenessScalingTest : public ::testing::TestWithParam<Shape> {};

TEST_P(LivenessScalingTest, BytesGrowAtMostLinearlyPerDoubling) {
  const Shape &S = GetParam();
  size_t Prev = 0;
  for (unsigned Size = S.BaseSize; Size <= 8 * S.BaseSize; Size *= 2) {
    size_t Bytes = livenessBytes(S.Generate(Size));
    std::printf("%s size %u: %zu bytes\n", S.Name, Size, Bytes);
    ASSERT_GT(Bytes, 0u) << S.Name << " " << Size;
    if (Prev != 0) {
      EXPECT_LE(static_cast<double>(Bytes), 2.3 * static_cast<double>(Prev))
          << S.Name << ": " << Prev << " bytes at size " << Size / 2 << ", "
          << Bytes << " at " << Size;
    }
    Prev = Bytes;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LivenessScalingTest,
    ::testing::Values(
        Shape{"diamonds", [](unsigned N) { return shapes::diamondChain(N); },
              250},
        Shape{"widejoin", [](unsigned N) { return shapes::wideJoin(N); }, 300},
        Shape{"loopnests", [](unsigned N) { return shapes::loopNests(N, 16); },
              10}),
    [](const ::testing::TestParamInfo<Shape> &Info) {
      return std::string(Info.param.Name);
    });

} // namespace
