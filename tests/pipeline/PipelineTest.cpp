//===- tests/pipeline/PipelineTest.cpp ------------------------------------===//

#include "pipeline/Pipeline.h"

#include "../common/TestPrograms.h"
#include "../common/TestUtils.h"
#include "ir/Function.h"
#include "ir/IRParser.h"
#include "ir/Verifier.h"
#include <gtest/gtest.h>

using namespace fcc;

namespace {

constexpr PipelineKind AllKinds[] = {
    PipelineKind::Standard, PipelineKind::New, PipelineKind::Briggs,
    PipelineKind::BriggsImproved};

TEST(PipelineTest, NamesAreStable) {
  EXPECT_STREQ(pipelineName(PipelineKind::Standard), "Standard");
  EXPECT_STREQ(pipelineName(PipelineKind::New), "New");
  EXPECT_STREQ(pipelineName(PipelineKind::Briggs), "Briggs");
  EXPECT_STREQ(pipelineName(PipelineKind::BriggsImproved), "Briggs*");
}

TEST(PipelineTest, AllPipelinesRemovePhisAndVerify) {
  for (PipelineKind Kind : AllKinds) {
    auto M = parseSingleFunctionOrDie(testprogs::NestedLoops);
    Function &F = *M->functions()[0];
    PipelineResult R = runPipeline(F, Kind);
    EXPECT_EQ(F.phiCount(), 0u) << pipelineName(Kind);
    std::string Error;
    EXPECT_TRUE(verifyFunction(F, Error)) << pipelineName(Kind) << ": "
                                          << Error;
    EXPECT_GT(R.PeakBytes, 0u);
    EXPECT_GT(R.PhisInserted, 0u);
  }
}

TEST(PipelineTest, NewNeverLeavesMoreCopiesThanStandard) {
  for (const RoutineSpec &Spec : kernelSuite()) {
    RoutineReport Std = runOnRoutine(Spec, PipelineKind::Standard, false);
    RoutineReport New = runOnRoutine(Spec, PipelineKind::New, false);
    EXPECT_LE(New.Compile.StaticCopies, Std.Compile.StaticCopies)
        << Spec.Name;
  }
}

TEST(PipelineTest, BriggsVariantsAgreeOnEveryKernel) {
  for (const RoutineSpec &Spec : kernelSuite()) {
    RoutineReport A = runOnRoutine(Spec, PipelineKind::Briggs, true);
    RoutineReport B = runOnRoutine(Spec, PipelineKind::BriggsImproved, true);
    EXPECT_EQ(A.Compile.StaticCopies, B.Compile.StaticCopies) << Spec.Name;
    EXPECT_EQ(A.Exec.ReturnValue, B.Exec.ReturnValue) << Spec.Name;
    EXPECT_EQ(A.Exec.CopiesExecuted, B.Exec.CopiesExecuted) << Spec.Name;
    // The improved variant's graphs are never larger.
    for (size_t I = 0;
         I < std::min(A.Compile.GraphBytesPerPass.size(),
                      B.Compile.GraphBytesPerPass.size());
         ++I)
      EXPECT_LE(B.Compile.GraphBytesPerPass[I],
                A.Compile.GraphBytesPerPass[I])
          << Spec.Name << " pass " << I;
  }
}

class KernelPipelineSemanticsTest
    : public ::testing::TestWithParam<std::tuple<size_t, int>> {};

TEST_P(KernelPipelineSemanticsTest, TransformedKernelMatchesInput) {
  auto [KernelIdx, KindInt] = GetParam();
  const RoutineSpec &Spec = kernelSuite()[KernelIdx];
  PipelineKind Kind = static_cast<PipelineKind>(KindInt);

  auto MRef = Spec.materialize();
  RoutineReport Got = runOnRoutine(Spec, Kind, /*Execute=*/true);
  ExecutionResult Ref = Interpreter().run(*MRef->functions()[0], Spec.Args);
  ASSERT_TRUE(Ref.Completed) << Spec.Name;
  EXPECT_TRUE(Got.Exec.Completed) << Spec.Name;
  EXPECT_EQ(Ref.ReturnValue, Got.Exec.ReturnValue)
      << Spec.Name << " under " << pipelineName(Kind);
  EXPECT_EQ(Ref.FinalMemory, Got.Exec.FinalMemory)
      << Spec.Name << " under " << pipelineName(Kind);
}

INSTANTIATE_TEST_SUITE_P(
    AllKernelsAllPipelines, KernelPipelineSemanticsTest,
    ::testing::Combine(::testing::Range<size_t>(0, 19),
                       ::testing::Values(0, 1, 2, 3)));

class GeneratedPipelineSemanticsTest
    : public ::testing::TestWithParam<std::tuple<unsigned, int>> {};

TEST_P(GeneratedPipelineSemanticsTest, TransformedProgramMatchesInput) {
  auto [Seed, KindInt] = GetParam();
  RoutineSpec Spec;
  Spec.Name = "prop";
  Spec.GenOpts.Seed = Seed;
  Spec.GenOpts.SizeBudget = 8 + Seed % 30;
  Spec.GenOpts.NumParams = 1 + Seed % 3;
  Spec.GenOpts.CopyPercent = 10 + (Seed * 7) % 45;
  Spec.Args = {static_cast<int64_t>(Seed % 5),
               static_cast<int64_t>(Seed % 3), 2};
  Spec.Args.resize(Spec.GenOpts.NumParams);

  auto MRef = Spec.materialize();
  PipelineKind Kind = static_cast<PipelineKind>(KindInt);
  RoutineReport Got = runOnRoutine(Spec, Kind, /*Execute=*/true);
  ExecutionResult Ref = Interpreter().run(*MRef->functions()[0], Spec.Args);
  ASSERT_TRUE(Ref.Completed);
  EXPECT_TRUE(Got.Exec.Completed);
  EXPECT_EQ(Ref.ReturnValue, Got.Exec.ReturnValue)
      << "seed " << Seed << " under " << pipelineName(Kind);
  EXPECT_EQ(Ref.FinalMemory, Got.Exec.FinalMemory)
      << "seed " << Seed << " under " << pipelineName(Kind);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsTimesPipelines, GeneratedPipelineSemanticsTest,
    ::testing::Combine(::testing::Range(1u, 41u),
                       ::testing::Values(0, 1, 2, 3)));

TEST(PipelineTest, ReportCarriesInputMetrics) {
  RoutineReport R =
      runOnRoutine(kernelSuite()[0], PipelineKind::New, /*Execute=*/false);
  EXPECT_EQ(R.Name, "tomcatv");
  EXPECT_GT(R.InputInstructions, 0u);
}

TEST(PipelineTest, DynamicCopiesNewAtMostStandard) {
  for (const RoutineSpec &Spec : kernelSuite()) {
    RoutineReport Std = runOnRoutine(Spec, PipelineKind::Standard, true);
    RoutineReport New = runOnRoutine(Spec, PipelineKind::New, true);
    EXPECT_LE(New.Exec.CopiesExecuted, Std.Exec.CopiesExecuted) << Spec.Name;
  }
}

} // namespace
