//===- tests/analysis/SparseLivenessTest.cpp ------------------------------===//
//
// Liveness over strict SSA input against the dense fixed-point reference
// (fuzz/ReferenceLiveness): in both modes the solver must fill exactly the
// reference's live-in/live-out sets — on the canonical fixtures, every
// kernel, a generator sweep and the large CFG shapes — and both modes must
// fill identical tables. The SSA-checked mode's preconditions
// (multi-definition, use above the definition, use of a never-defined name)
// must be hard errors. bytes() must report the committed CSR size.
//
//===----------------------------------------------------------------------===//

#include "analysis/SparseLiveness.h"

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

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>

using namespace fcc;

namespace {

bool sameIds(std::span<const unsigned> A, std::span<const unsigned> B) {
  return std::equal(A.begin(), A.end(), B.begin(), B.end());
}

/// Both modes against the reference, and against each other.
void expectMatchesReference(const Function &F, const std::string &Context) {
  Liveness Dense(F, LivenessAlgorithm::Dense);
  Liveness Sparse(F, LivenessAlgorithm::Sparse);
  std::string Detail;
  EXPECT_TRUE(compareLiveness(F, Sparse, Detail)) << Context << ": " << Detail;
  ASSERT_EQ(Dense.bytes(), Sparse.bytes()) << Context;
  for (const auto &B : F.blocks()) {
    EXPECT_TRUE(sameIds(Dense.liveIn(B.get()), Sparse.liveIn(B.get())))
        << Context << ": live-in(" << B->name() << ")";
    EXPECT_TRUE(sameIds(Dense.liveOut(B.get()), Sparse.liveOut(B.get())))
        << Context << ": live-out(" << B->name() << ")";
  }
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

TEST(SparseLivenessTest, AgreesOnCanonicalPrograms) {
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

TEST(SparseLivenessTest, AgreesOnEveryKernel) {
  for (const RoutineSpec &Spec : kernelSuite()) {
    auto M = Spec.materialize();
    for (auto &F : M->functions()) {
      toSSA(*F);
      expectMatchesReference(*F, Spec.Name);
    }
  }
}

TEST(SparseLivenessTest, AgreesOnGeneratorSweep) {
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

TEST(SparseLivenessTest, AgreesOnLargeShapes) {
  for (const std::string &Text :
       {shapes::diamondChain(300), shapes::wideJoin(200),
        shapes::loopNests(6, 16)}) {
    auto M = parseSingleFunctionOrDie(Text);
    Function &F = *M->functions()[0];
    toSSA(F);
    expectMatchesReference(F, F.name());
  }
}

TEST(SparseLivenessTest, ParamsAreLiveIntoEntry) {
  // Parameters have no defining instruction, so a use anywhere makes them
  // upward-exposed all the way into live-in(entry) — the exact shape the
  // first sparse-solver draft got wrong by modelling them as defined at
  // entry's top.
  auto M = parseSingleFunctionOrDie(testprogs::StraightLine);
  Function &F = *M->functions()[0];
  toSSA(F);
  SparseLiveness LV(F);
  const Variable *A = nullptr;
  for (const Variable *P : F.params())
    if (P->name() == "a")
      A = P;
  ASSERT_NE(A, nullptr);
  EXPECT_TRUE(LV.isLiveIn(F.entry(), A));
}

TEST(SparseLivenessTest, SparseLivenessWrapperIsTheSparseAlgorithm) {
  auto M = parseSingleFunctionOrDie(testprogs::SumLoop);
  Function &F = *M->functions()[0];
  toSSA(F);
  SparseLiveness Sparse(F);
  Liveness Dense(F, LivenessAlgorithm::Dense);
  for (const auto &B : F.blocks()) {
    EXPECT_TRUE(sameIds(Sparse.liveIn(B.get()), Dense.liveIn(B.get())))
        << B->name();
    EXPECT_TRUE(sameIds(Sparse.liveOut(B.get()), Dense.liveOut(B.get())))
        << B->name();
  }
}

TEST(SparseLivenessTest, BytesReportsCommittedSize) {
  // bytes() must be exactly the committed CSR tables — for live-in and for
  // live-out, one offset per block plus one, one id per (block, live
  // variable) pair and one 64-bit summary per block — and identical across
  // modes (PeakBytes comparability depends on it). The pair counts come
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
  EXPECT_EQ(Liveness(F, LivenessAlgorithm::Dense).bytes(), Expected);
  EXPECT_EQ(Liveness(F, LivenessAlgorithm::Sparse).bytes(), Expected);
}

TEST(SparseLivenessTest, MultipleDefinitionsThrow) {
  // SumLoop before SSA construction redefines %i and %sum — legal input
  // without the SSA check, a hard precondition violation with it.
  auto M = parseSingleFunctionOrDie(testprogs::SumLoop);
  Function &F = *M->functions()[0];
  EXPECT_NO_THROW(Liveness(F, LivenessAlgorithm::Dense));
  EXPECT_THROW(Liveness(F, LivenessAlgorithm::Sparse), std::invalid_argument);
  try {
    Liveness LV(F, LivenessAlgorithm::Sparse);
    FAIL() << "multi-definition input must throw";
  } catch (const std::invalid_argument &E) {
    EXPECT_NE(std::string(E.what()).find("more than one definition"),
              std::string::npos)
        << E.what();
  }
}

TEST(SparseLivenessTest, UseAboveDefinitionInBlockThrows) {
  auto M = parseSingleFunctionOrDie(R"(
func @ubd(%n) {
entry:
  %y = add %x, %n
  %x = const 2
  %z = add %y, %x
  ret %z
}
)");
  Function &F = *M->functions()[0];
  try {
    Liveness LV(F, LivenessAlgorithm::Sparse);
    FAIL() << "same-block use above the definition must throw";
  } catch (const std::invalid_argument &E) {
    EXPECT_NE(std::string(E.what()).find("used above its definition"),
              std::string::npos)
        << E.what();
  }
}

TEST(SparseLivenessTest, UseOfNeverDefinedVariableThrows) {
  auto M = parseSingleFunctionOrDie(R"(
func @nodef(%n) {
entry:
  %y = add %ghost, %n
  ret %y
}
)");
  Function &F = *M->functions()[0];
  try {
    Liveness LV(F, LivenessAlgorithm::Sparse);
    FAIL() << "use of a never-defined name must throw";
  } catch (const std::invalid_argument &E) {
    EXPECT_NE(std::string(E.what()).find("never defined"), std::string::npos)
        << E.what();
  }
}

} // namespace
