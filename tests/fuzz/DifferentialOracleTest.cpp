//===- tests/fuzz/DifferentialOracleTest.cpp ------------------------------===//

#include "fuzz/DifferentialOracle.h"

#include "../common/TestPrograms.h"
#include "ir/IRPrinter.h"
#include "ir/Module.h"
#include "workload/KernelSuite.h"
#include "workload/ProgramGenerator.h"
#include <gtest/gtest.h>
#include <set>

using namespace fcc;

namespace {

TEST(DifferentialOracleTest, ConfigNamesAreUniqueAndCoverBothSchemes) {
  std::vector<std::string> Names = oracleConfigNames();
  std::set<std::string> Unique(Names.begin(), Names.end());
  EXPECT_EQ(Names.size(), Unique.size());
  EXPECT_GE(Names.size(), 8u);
  // Every SSA flavor and both destruction families must be represented.
  for (const char *Piece :
       {"minimal", "semi", "pruned", "fast", "standard", "briggs"}) {
    bool Found = false;
    for (const std::string &N : Names)
      Found |= N.find(Piece) != std::string::npos;
    EXPECT_TRUE(Found) << "no config mentions '" << Piece << "'";
  }
}

TEST(DifferentialOracleTest, RunsTheAnalysisCrosscheckPerFunction) {
  // Beyond the config matrix, the oracle cross-validates the analyses
  // directly against their references once per function; ConfigsRun
  // counts it.
  OracleResult R = runDifferentialOracle(testprogs::SumLoop);
  ASSERT_TRUE(R.clean()) << R.InputError;
  EXPECT_GE(R.ConfigsRun, static_cast<unsigned>(oracleConfigNames().size()) + 1);
}

TEST(DifferentialOracleTest, CleanOnCanonicalPrograms) {
  for (const char *Text :
       {testprogs::StraightLine, testprogs::SumLoop, testprogs::Diamond,
        testprogs::VirtualSwap, testprogs::SwapLoop, testprogs::LostCopy,
        testprogs::ArraySum, testprogs::NestedLoops}) {
    OracleResult R = runDifferentialOracle(Text);
    EXPECT_TRUE(R.InputOk) << R.InputError;
    EXPECT_TRUE(R.clean()) << Text << "\nfirst divergence: "
                           << (R.Divergences.empty()
                                   ? ""
                                   : R.Divergences[0].Config + ": " +
                                         R.Divergences[0].Detail);
    EXPECT_GE(R.ConfigsRun, oracleConfigNames().size());
  }
}

TEST(DifferentialOracleTest, CleanOnHandWrittenKernels) {
  // The full suite is the benchmark harness's job; a prefix keeps this
  // cheap while still covering loop nests and copy chains.
  const std::vector<RoutineSpec> &Suite = kernelSuite();
  ASSERT_FALSE(Suite.empty());
  unsigned Count = 0;
  for (const RoutineSpec &Spec : Suite) {
    if (++Count > 4)
      break;
    std::unique_ptr<Module> M = Spec.materialize();
    OracleResult R = runDifferentialOracle(printModule(*M));
    EXPECT_TRUE(R.clean())
        << Spec.Name << ": "
        << (R.Divergences.empty() ? R.InputError
                                  : R.Divergences[0].Detail);
  }
}

TEST(DifferentialOracleTest, CleanOnGeneratedPrograms) {
  for (unsigned Run = 0; Run != 8; ++Run) {
    GeneratorOptions G = fuzzerOptionsForRun(/*MasterSeed=*/42, Run);
    Module M;
    generateProgram(M, "g" + std::to_string(Run), G);
    OracleResult R = runDifferentialOracle(printModule(M));
    EXPECT_TRUE(R.clean())
        << "run " << Run << ": "
        << (R.Divergences.empty() ? R.InputError : R.Divergences[0].Detail);
  }
}

TEST(DifferentialOracleTest, RejectsUnparsableInput) {
  OracleResult R = runDifferentialOracle("this is not IR");
  EXPECT_FALSE(R.InputOk);
  EXPECT_FALSE(R.InputError.empty());
  EXPECT_EQ(R.ConfigsRun, 0u);
}

TEST(DifferentialOracleTest, RejectsNonStrictInput) {
  // %x is only defined on one path to its use.
  const char *NonStrict = "func @f(%c) {\nentry:\n  cbr %c, a, b\n"
                          "a:\n  %x = const 1\n  br join\n"
                          "b:\n  br join\n"
                          "join:\n  ret %x\n}";
  OracleResult R = runDifferentialOracle(NonStrict);
  EXPECT_FALSE(R.InputOk);
  EXPECT_NE(R.InputError.find("strict"), std::string::npos)
      << R.InputError;
}

TEST(DifferentialOracleTest, DeterministicAcrossInvocations) {
  GeneratorOptions G = fuzzerOptionsForRun(7, 3);
  Module M;
  generateProgram(M, "det", G);
  std::string Text = printModule(M);
  OracleResult A = runDifferentialOracle(Text);
  OracleResult B = runDifferentialOracle(Text);
  EXPECT_EQ(A.InputOk, B.InputOk);
  EXPECT_EQ(A.ConfigsRun, B.ConfigsRun);
  ASSERT_EQ(A.Divergences.size(), B.Divergences.size());
  for (size_t I = 0; I != A.Divergences.size(); ++I) {
    EXPECT_EQ(A.Divergences[I].Config, B.Divergences[I].Config);
    EXPECT_EQ(A.Divergences[I].Detail, B.Divergences[I].Detail);
  }
}

TEST(DifferentialOracleTest, KindNamesAreStable) {
  EXPECT_STREQ(divergenceKindName(DivergenceKind::VerifyFail),
               "verify-fail");
  EXPECT_STREQ(divergenceKindName(DivergenceKind::CheckRefuted),
               "check-refuted");
  EXPECT_STREQ(divergenceKindName(DivergenceKind::ExecMismatch),
               "exec-mismatch");
  EXPECT_STREQ(divergenceKindName(DivergenceKind::CopyRegression),
               "copy-regression");
  EXPECT_STREQ(divergenceKindName(DivergenceKind::AllocUnsound),
               "alloc-unsound");
  EXPECT_STREQ(divergenceKindName(DivergenceKind::AnalysisMismatch),
               "analysis-mismatch");
  EXPECT_STREQ(divergenceKindName(DivergenceKind::InternalError),
               "internal-error");
}

} // namespace
