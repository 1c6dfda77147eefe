//===- tests/ssa/SSABuilderTest.cpp ---------------------------------------===//

#include "ssa/SSABuilder.h"

#include "../common/TestPrograms.h"
#include "../common/TestUtils.h"
#include "analysis/CFGUtils.h"
#include "analysis/DominatorTree.h"
#include "ir/BasicBlock.h"
#include "ir/Function.h"
#include "ir/IRParser.h"
#include "ir/Variable.h"
#include "ir/Verifier.h"
#include <gtest/gtest.h>

using namespace fcc;

namespace {

SSABuildStats toSSA(Function &F, SSAFlavor Flavor, bool Fold = false) {
  splitCriticalEdges(F);
  DominatorTree DT(F);
  SSABuildOptions Opts;
  Opts.Flavor = Flavor;
  Opts.FoldCopies = Fold;
  return buildSSA(F, DT, Opts);
}

TEST(SSABuilderTest, LoopGetsPhisForLoopCarriedNames) {
  auto M = parseSingleFunctionOrDie(testprogs::SumLoop);
  Function &F = *M->functions()[0];
  SSABuildStats Stats = toSSA(F, SSAFlavor::Pruned);
  // i and sum are loop carried; n is never redefined.
  EXPECT_EQ(Stats.PhisInserted, 2u);
  BasicBlock *Header = F.findBlock("header");
  EXPECT_EQ(Header->phis().size(), 2u);
  DominatorTree DT(F);
  std::string Error;
  EXPECT_TRUE(verifySSAForm(F, DT, Error)) << Error;
}

TEST(SSABuilderTest, EveryVariableHasAtMostOneDef) {
  auto M = parseSingleFunctionOrDie(testprogs::NestedLoops);
  Function &F = *M->functions()[0];
  toSSA(F, SSAFlavor::Pruned);
  std::vector<unsigned> Defs(F.numVariables(), 0);
  for (const auto &B : F.blocks()) {
    for (const auto &I : B->phis())
      ++Defs[I->getDef()->id()];
    for (const auto &I : B->insts())
      if (I->getDef())
        ++Defs[I->getDef()->id()];
  }
  for (unsigned Count : Defs)
    EXPECT_LE(Count, 1u);
}

TEST(SSABuilderTest, SSANamesTrackTheirOrigins) {
  auto M = parseSingleFunctionOrDie(testprogs::SumLoop);
  Function &F = *M->functions()[0];
  const Variable *OrigI = F.findVariable("i");
  toSSA(F, SSAFlavor::Pruned);
  Variable *I1 = F.findVariable("i.1");
  ASSERT_NE(I1, nullptr);
  EXPECT_EQ(I1->rootOrigin(), OrigI);
}

TEST(SSABuilderTest, FlavorsOrderedByPhiCount) {
  unsigned Counts[3];
  SSAFlavor Flavors[3] = {SSAFlavor::Minimal, SSAFlavor::SemiPruned,
                          SSAFlavor::Pruned};
  for (int FI = 0; FI != 3; ++FI) {
    auto M = parseSingleFunctionOrDie(testprogs::NestedLoops);
    Function &F = *M->functions()[0];
    Counts[FI] = toSSA(F, Flavors[FI]).PhisInserted;
    DominatorTree DT(F);
    std::string Error;
    EXPECT_TRUE(verifySSAForm(F, DT, Error)) << Error;
  }
  EXPECT_GE(Counts[0], Counts[1]) << "minimal >= semi-pruned";
  EXPECT_GE(Counts[1], Counts[2]) << "semi-pruned >= pruned";
}

TEST(SSABuilderTest, PrunedSkipsDeadJoins) {
  // %t is defined in both arms but never used after the join: minimal SSA
  // places a phi for it, pruned SSA must not.
  const char *Text = R"(
func @deadjoin(%c) {
entry:
  cbr %c, l, r
l:
  %t = const 1
  %u = add %t, 1
  br j
r:
  %t = const 2
  %u = add %t, 2
  br j
j:
  ret %u
}
)";
  auto MMin = parseSingleFunctionOrDie(Text);
  auto MPruned = parseSingleFunctionOrDie(Text);
  Function &FMin = *MMin->functions()[0];
  Function &FPruned = *MPruned->functions()[0];
  unsigned MinPhis = toSSA(FMin, SSAFlavor::Minimal).PhisInserted;
  unsigned PrunedPhis = toSSA(FPruned, SSAFlavor::Pruned).PhisInserted;
  EXPECT_EQ(MinPhis, 2u) << "phis for both t and u";
  EXPECT_EQ(PrunedPhis, 1u) << "only u is live into the join";
}

TEST(SSABuilderTest, CopyFoldingDeletesCopies) {
  auto M = parseSingleFunctionOrDie(testprogs::VirtualSwap);
  Function &F = *M->functions()[0];
  ASSERT_EQ(F.staticCopyCount(), 4u);
  SSABuildStats Stats = toSSA(F, SSAFlavor::Pruned, /*Fold=*/true);
  EXPECT_EQ(Stats.CopiesFolded, 4u);
  EXPECT_EQ(F.staticCopyCount(), 0u);
  DominatorTree DT(F);
  std::string Error;
  EXPECT_TRUE(verifySSAForm(F, DT, Error)) << Error;
}

TEST(SSABuilderTest, FoldedPhiOperandsReadTheCopySource) {
  auto M = parseSingleFunctionOrDie(testprogs::VirtualSwap);
  Function &F = *M->functions()[0];
  toSSA(F, SSAFlavor::Pruned, /*Fold=*/true);
  BasicBlock *Join = F.findBlock("join");
  ASSERT_EQ(Join->phis().size(), 2u);
  // Both phis must now read versions of a and b directly (Fig. 3b).
  for (const auto &Phi : Join->phis())
    for (const Operand &O : Phi->operands()) {
      ASSERT_TRUE(O.isVar());
      std::string Root = O.getVar()->rootOrigin()->name();
      EXPECT_TRUE(Root == "a" || Root == "b") << Root;
    }
}

TEST(SSABuilderTest, ParamRedefinitionVersionsTheParam) {
  auto M = parseSingleFunctionOrDie(R"(
func @clobber(%a) {
entry:
  %x = add %a, 1
  %a = mul %x, 2
  ret %a
}
)");
  Function &F = *M->functions()[0];
  toSSA(F, SSAFlavor::Pruned);
  DominatorTree DT(F);
  std::string Error;
  EXPECT_TRUE(verifySSAForm(F, DT, Error)) << Error;
  EXPECT_NE(F.findVariable("a.1"), nullptr);
}

class SSAFlavorSemanticsTest
    : public ::testing::TestWithParam<std::tuple<const char *, int, bool>> {};

TEST_P(SSAFlavorSemanticsTest, ConstructionPreservesSemantics) {
  auto [Text, FlavorInt, Fold] = GetParam();
  auto MRef = parseSingleFunctionOrDie(Text);
  auto MSsa = parseSingleFunctionOrDie(Text);
  Function &Ref = *MRef->functions()[0];
  Function &Ssa = *MSsa->functions()[0];
  toSSA(Ssa, static_cast<SSAFlavor>(FlavorInt), Fold);
  std::string Error;
  ASSERT_TRUE(verifyFunction(Ssa, Error)) << Error;
  for (const auto &Args : testutils::interestingArgs(
           static_cast<unsigned>(Ref.params().size())))
    testutils::expectSameBehavior(Ref, Ssa, Args);
}

INSTANTIATE_TEST_SUITE_P(
    AllProgramsAllFlavors, SSAFlavorSemanticsTest,
    ::testing::Combine(::testing::Values(testprogs::StraightLine,
                                         testprogs::SumLoop,
                                         testprogs::Diamond,
                                         testprogs::VirtualSwap,
                                         testprogs::SwapLoop,
                                         testprogs::LostCopy,
                                         testprogs::ArraySum,
                                         testprogs::NestedLoops),
                       ::testing::Values(0, 1, 2),
                       ::testing::Bool()));

TEST(SSABuilderTest, StatsCountNamesCreated) {
  auto M = parseSingleFunctionOrDie(testprogs::SumLoop);
  Function &F = *M->functions()[0];
  unsigned Before = F.numVariables();
  SSABuildStats Stats = toSSA(F, SSAFlavor::Pruned);
  EXPECT_EQ(F.numVariables(), Before + Stats.NamesCreated);
  EXPECT_GT(Stats.PeakBytes, 0u);
}

/// verifySSAForm's verdict on \p Text, built into a function as written.
std::string ssaError(const char *Text) {
  auto M = parseSingleFunctionOrDie(Text);
  Function &F = *M->functions()[0];
  std::string Error;
  EXPECT_FALSE(verifySSAForm(F, DominatorTree(F), Error));
  return Error;
}

TEST(VerifySSAFormTest, RejectsMultipleDefinitions) {
  // SumLoop before SSA construction redefines %i and %sum.
  EXPECT_NE(ssaError(testprogs::SumLoop).find("more than one definition"),
            std::string::npos);
}

TEST(VerifySSAFormTest, RejectsUseAboveDefinitionInBlock) {
  std::string Error = ssaError(R"(
func @ubd(%n) {
entry:
  %y = add %x, %n
  %x = const 2
  %z = add %y, %x
  ret %z
}
)");
  EXPECT_NE(Error.find("used above its definition"), std::string::npos)
      << Error;
}

TEST(VerifySSAFormTest, RejectsUseOfNeverDefinedVariable) {
  std::string Error = ssaError(R"(
func @nodef(%n) {
entry:
  %y = add %ghost, %n
  ret %y
}
)");
  EXPECT_NE(Error.find("never defined"), std::string::npos) << Error;
}

} // namespace
