//===- tests/analysis/SSALivenessTest.cpp ---------------------------------===//
//
// Liveness over strict SSA input against the dense fixed-point reference
// (fuzz/ReferenceLiveness): the solver must fill exactly the reference's
// live-in/live-out sets — on the canonical fixtures, every kernel, a
// generator sweep and the large CFG shapes. bytes() must report the
// committed CSR size. (Non-SSA input is LivenessTest's; the SSA
// preconditions are verifySSAForm's, see VerifySSAFormTest.)
//
//===----------------------------------------------------------------------===//

#include "analysis/Liveness.h"

#include "../common/LargeShapes.h"
#include "../common/TestPrograms.h"
#include "analysis/CFGUtils.h"
#include "analysis/DominatorTree.h"
#include "fuzz/ReferenceLiveness.h"
#include "ir/BasicBlock.h"
#include "ir/Function.h"
#include "ir/IRParser.h"
#include "ir/Module.h"
#include "ir/Variable.h"
#include "ssa/SSABuilder.h"
#include "workload/KernelSuite.h"
#include "workload/ProgramGenerator.h"
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

using namespace fcc;

namespace {

void expectMatchesReference(const Function &F, const std::string &Context) {
  std::string Detail;
  EXPECT_TRUE(compareLiveness(F, Liveness(F), Detail))
      << Context << ": " << Detail;
}

/// Takes \p F to pruned, copy-folded SSA — the form the pipeline hands the
/// liveness analysis.
void toSSA(Function &F) {
  splitCriticalEdges(F);
  DominatorTree DT(F);
  SSABuildOptions Build;
  Build.FoldCopies = true;
  buildSSA(F, DT, Build);
}

TEST(SSALivenessTest, AgreesOnCanonicalPrograms) {
  const char *Programs[] = {
      testprogs::StraightLine, testprogs::SumLoop,  testprogs::Diamond,
      testprogs::VirtualSwap,  testprogs::SwapLoop, testprogs::LostCopy,
      testprogs::ArraySum,     testprogs::NestedLoops};
  for (const char *Text : Programs) {
    auto M = parseSingleFunctionOrDie(Text);
    Function &F = *M->functions()[0];
    toSSA(F);
    expectMatchesReference(F, F.name());
  }
}

TEST(SSALivenessTest, AgreesOnEveryKernel) {
  for (const RoutineSpec &Spec : kernelSuite()) {
    auto M = Spec.materialize();
    for (auto &F : M->functions()) {
      toSSA(*F);
      expectMatchesReference(*F, Spec.Name);
    }
  }
}

TEST(SSALivenessTest, AgreesOnGeneratorSweep) {
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    Module M;
    GeneratorOptions Opts;
    Opts.Seed = Seed;
    Opts.SizeBudget = 40 + static_cast<unsigned>(Seed) * 17;
    Opts.NumVars = 11;
    Function *F = generateProgram(M, "g" + std::to_string(Seed), Opts);
    toSSA(*F);
    expectMatchesReference(*F, F->name());
  }
}

TEST(SSALivenessTest, AgreesOnLargeShapes) {
  for (const std::string &Text :
       {shapes::diamondChain(300), shapes::wideJoin(200),
        shapes::loopNests(6, 16)}) {
    auto M = parseSingleFunctionOrDie(Text);
    Function &F = *M->functions()[0];
    toSSA(F);
    expectMatchesReference(F, F.name());
  }
}

TEST(SSALivenessTest, ParamsAreLiveIntoEntry) {
  // Parameters have no defining instruction, so a use anywhere makes them
  // upward-exposed all the way into live-in(entry) — the exact shape the
  // first per-variable solver draft got wrong by modelling them as defined at
  // entry's top.
  auto M = parseSingleFunctionOrDie(testprogs::StraightLine);
  Function &F = *M->functions()[0];
  toSSA(F);
  Liveness LV(F);
  const Variable *A = nullptr;
  for (const Variable *P : F.params())
    if (P->name() == "a")
      A = P;
  ASSERT_NE(A, nullptr);
  EXPECT_TRUE(LV.isLiveIn(F.entry(), A));
}

TEST(SSALivenessTest, BytesReportsCommittedSize) {
  // bytes() must be exactly the committed CSR tables — for live-in and for
  // live-out, one offset per block plus one, one id per (block, live
  // variable) pair and one 64-bit summary per block. The pair counts come
  // from the dense reference.
  auto M = parseSingleFunctionOrDie(testprogs::NestedLoops);
  Function &F = *M->functions()[0];
  toSSA(F);
  ReferenceLiveness Ref(F);
  size_t Pairs = 0;
  for (const auto &B : F.blocks())
    Pairs += Ref.liveIn(B.get()).count() + Ref.liveOut(B.get()).count();
  ASSERT_GT(Pairs, 0u);
  size_t Blocks = F.numBlocks();
  size_t Expected = (2 * (Blocks + 1) + Pairs) * sizeof(unsigned) +
                    2 * Blocks * sizeof(uint64_t);
  EXPECT_EQ(Liveness(F).bytes(), Expected);
}

} // namespace
