//===- tests/fuzz/ReferenceCoalescerTest.cpp ------------------------------===//
//
// FastCoalescer's incremental set building (per-set treaps, cross-pair
// checks only) must reach exactly the partition of the full-rescan
// reference, in eager and lazy mode, on the kernels, on generated
// programs and on the large shapes the incremental check exists for.
//
//===----------------------------------------------------------------------===//

#include "fuzz/ReferenceCoalescer.h"

#include "../common/LargeShapes.h"
#include "analysis/CFGUtils.h"
#include "analysis/DominatorTree.h"
#include "analysis/Liveness.h"
#include "fuzz/DifferentialOracle.h"
#include "ir/Function.h"
#include "ir/IRParser.h"
#include "ir/Module.h"
#include "ssa/SSABuilder.h"
#include "workload/KernelSuite.h"
#include "workload/ProgramGenerator.h"
#include <gtest/gtest.h>

using namespace fcc;

namespace {

/// The eager default, the paper's lazy mode, and lazy without filters
/// (where sets collect members with equal keys, so merge order matters).
std::vector<FastCoalescerOptions> modes() {
  FastCoalescerOptions Eager, Lazy, LazyNoFilters;
  Lazy.EagerSetChecks = false;
  LazyNoFilters.EagerSetChecks = false;
  LazyNoFilters.UseFilters = false;
  return {Eager, Lazy, LazyNoFilters};
}

/// Builds pruned+fold SSA for \p F and compares both coalescers in every
/// mode.
void expectSamePartition(Function &F, const std::string &What) {
  splitCriticalEdges(F);
  DominatorTree DT(F);
  SSABuildOptions Build;
  Build.FoldCopies = true;
  buildSSA(F, DT, Build);
  Liveness LV(F);
  unsigned Mode = 0;
  for (const FastCoalescerOptions &Opts : modes()) {
    std::string Detail;
    EXPECT_TRUE(compareWithReference(F, DT, LV, Opts, Detail))
        << What << " mode " << Mode << ": " << Detail;
    ++Mode;
  }
}

TEST(ReferenceCoalescerTest, KernelSuiteMatches) {
  for (const RoutineSpec &Spec : kernelSuite()) {
    std::unique_ptr<Module> M = Spec.materialize();
    for (const auto &F : M->functions())
      expectSamePartition(*F, Spec.Name);
  }
}

TEST(ReferenceCoalescerTest, GeneratedProgramsMatch) {
  for (unsigned Run = 0; Run != 200; ++Run) {
    Module M;
    Function *F = generateProgram(M, "g", fuzzerOptionsForRun(42, Run));
    expectSamePartition(*F, "generated run " + std::to_string(Run));
  }
}

TEST(ReferenceCoalescerTest, LargeShapesMatch) {
  for (const std::string &Text :
       {shapes::diamondChain(300), shapes::wideJoin(300),
        shapes::loopNests(12, 16)}) {
    auto M = parseSingleFunctionOrDie(Text);
    Function &F = *M->functions()[0];
    expectSamePartition(F, "@" + F.name());
  }
}

TEST(ReferenceCoalescerTest, DivergenceKindHasStableName) {
  EXPECT_STREQ(divergenceKindName(DivergenceKind::CoalescerMismatch),
               "coalescer-mismatch");
}

} // namespace
