//===- tests/analysis/LivenessTest.cpp ------------------------------------===//
//
// Liveness on any input, SSA or not: the Section 3.1 phi convention on
// hand-picked programs, and agreement with the dense fixed-point reference
// (fuzz/ReferenceLiveness) on multi-definition code — hand-written
// programs, the kernels, a generator sweep and the large CFG shapes before
// SSA construction, and the code each pipeline leaves after destruction
// and allocation.
//
//===----------------------------------------------------------------------===//

#include "analysis/Liveness.h"

#include "../common/LargeShapes.h"
#include "../common/TestPrograms.h"
#include "analysis/CFGUtils.h"
#include "fuzz/ReferenceLiveness.h"
#include "ir/BasicBlock.h"
#include "ir/Function.h"
#include "ir/IRParser.h"
#include "ir/Module.h"
#include "ir/Variable.h"
#include "pipeline/Pipeline.h"
#include "regalloc/MachineModel.h"
#include "workload/KernelSuite.h"
#include "workload/ProgramGenerator.h"
#include <gtest/gtest.h>

#include <string>

using namespace fcc;

namespace {

void expectMatchesReference(const Function &F, const std::string &Context) {
  std::string Detail;
  EXPECT_TRUE(compareLiveness(F, Liveness(F), Detail))
      << Context << ": " << Detail;
}

TEST(LivenessTest, StraightLineParamsLiveInOnly) {
  auto M = parseSingleFunctionOrDie(testprogs::StraightLine);
  Function &F = *M->functions()[0];
  Liveness L(F);
  // Straight-line code: nothing is live out of the only block, and the only
  // upward-exposed names at entry are the parameters (defined by the caller).
  EXPECT_TRUE(L.liveOut(F.entry()).empty());
  EXPECT_EQ(L.liveIn(F.entry()).size(), F.params().size());
  for (const Variable *P : F.params())
    EXPECT_TRUE(L.isLiveIn(F.entry(), P));
}

TEST(LivenessTest, LoopCarriedVariablesAreLiveAroundTheLoop) {
  auto M = parseSingleFunctionOrDie(testprogs::SumLoop);
  Function &F = *M->functions()[0];
  Liveness L(F);
  BasicBlock *Header = F.findBlock("header");
  BasicBlock *Body = F.findBlock("body");
  Variable *I = F.findVariable("i");
  Variable *Sum = F.findVariable("sum");
  Variable *N = F.findVariable("n");
  EXPECT_TRUE(L.isLiveIn(Header, I));
  EXPECT_TRUE(L.isLiveIn(Header, Sum));
  EXPECT_TRUE(L.isLiveIn(Header, N)) << "n is used by the header's compare";
  EXPECT_TRUE(L.isLiveOut(Body, I));
  EXPECT_TRUE(L.isLiveOut(Body, Sum));
  EXPECT_TRUE(L.isLiveOut(F.entry(), I));
}

TEST(LivenessTest, ValueDeadAfterLastUse) {
  auto M = parseSingleFunctionOrDie(testprogs::SumLoop);
  Function &F = *M->functions()[0];
  Liveness L(F);
  BasicBlock *Exit = F.findBlock("exit");
  Variable *I = F.findVariable("i");
  Variable *Sum = F.findVariable("sum");
  EXPECT_FALSE(L.isLiveIn(Exit, I)) << "i is not used after the loop";
  EXPECT_TRUE(L.isLiveIn(Exit, Sum));
  EXPECT_TRUE(L.liveOut(Exit).empty());
}

TEST(LivenessTest, ConditionVariableDiesAtBranch) {
  auto M = parseSingleFunctionOrDie(testprogs::Diamond);
  Function &F = *M->functions()[0];
  Liveness L(F);
  Variable *C = F.findVariable("c");
  BasicBlock *Left = F.findBlock("left");
  EXPECT_FALSE(L.isLiveIn(Left, C));
  EXPECT_FALSE(L.isLiveOut(F.entry(), C));
}

TEST(LivenessTest, PhiOperandIsLiveOutOfPredNotLiveInOfPhiBlock) {
  auto M = parseSingleFunctionOrDie(R"(
func @f(%c) {
entry:
  %a = const 1
  %b = const 2
  cbr %c, l, r
l:
  br j
r:
  br j
j:
  %x = phi [%a, l], [%b, r]
  ret %x
}
)");
  Function &F = *M->functions()[0];
  Liveness L(F);
  BasicBlock *LB = F.findBlock("l");
  BasicBlock *RB = F.findBlock("r");
  BasicBlock *J = F.findBlock("j");
  Variable *A = F.findVariable("a");
  Variable *B = F.findVariable("b");
  Variable *X = F.findVariable("x");

  // The paper's convention (Section 3.1): a flows into j's phi, so it is
  // live out of l but NOT live into j.
  EXPECT_TRUE(L.isLiveOut(LB, A));
  EXPECT_FALSE(L.isLiveIn(J, A));
  EXPECT_TRUE(L.isLiveOut(RB, B));
  EXPECT_FALSE(L.isLiveIn(J, B));
  // a does not flow through r, and vice versa.
  EXPECT_FALSE(L.isLiveOut(RB, A));
  EXPECT_FALSE(L.isLiveOut(LB, B));
  // The phi result is defined at the top of j.
  EXPECT_FALSE(L.isLiveIn(J, X));
}

TEST(LivenessTest, DirectUseInPhiBlockKeepsValueLiveIn) {
  auto M = parseSingleFunctionOrDie(R"(
func @f(%c) {
entry:
  %a = const 1
  %b = const 2
  cbr %c, l, r
l:
  br j
r:
  br j
j:
  %x = phi [%a, l], [%b, r]
  %y = add %x, %a   ; direct (non-phi) use of a in j
  ret %y
}
)");
  Function &F = *M->functions()[0];
  Liveness L(F);
  BasicBlock *J = F.findBlock("j");
  BasicBlock *RB = F.findBlock("r");
  Variable *A = F.findVariable("a");
  EXPECT_TRUE(L.isLiveIn(J, A)) << "a has a direct use below the phis";
  EXPECT_TRUE(L.isLiveOut(RB, A)) << "a reaches the direct use through r too";
}

TEST(LivenessTest, StoreOperandsAreUses) {
  auto M = parseSingleFunctionOrDie(testprogs::ArraySum);
  Function &F = *M->functions()[0];
  Liveness L(F);
  BasicBlock *FillBody = F.findBlock("fillbody");
  Variable *N = F.findVariable("n");
  EXPECT_TRUE(L.isLiveIn(FillBody, N));
}

TEST(LivenessTest, SelfRedefinitionIsUpwardExposed) {
  // In `%i = add %i, 1` the use of %i happens before the def.
  auto M = parseSingleFunctionOrDie(testprogs::SumLoop);
  Function &F = *M->functions()[0];
  Liveness L(F);
  BasicBlock *Body = F.findBlock("body");
  Variable *I = F.findVariable("i");
  EXPECT_TRUE(L.isLiveIn(Body, I));
}

TEST(LivenessTest, RedefinitionOnOneArmKillsOnlyThatArm) {
  auto M = parseSingleFunctionOrDie(R"(
func @onearm(%c, %a) {
entry:
  %x = add %a, 1
  cbr %c, l, r
l:
  %x = const 7
  br j
r:
  br j
j:
  %y = add %x, 1
  ret %y
}
)");
  Function &F = *M->functions()[0];
  Liveness L(F);
  Variable *X = F.findVariable("x");
  EXPECT_TRUE(L.isLiveIn(F.findBlock("j"), X));
  EXPECT_TRUE(L.isLiveOut(F.findBlock("l"), X));
  EXPECT_FALSE(L.isLiveIn(F.findBlock("l"), X)) << "l redefines x first";
  EXPECT_TRUE(L.isLiveIn(F.findBlock("r"), X));
  EXPECT_TRUE(L.isLiveOut(F.entry(), X)) << "the entry x reaches j via r";
  expectMatchesReference(F, F.name());
}

TEST(LivenessTest, NeverUsedRedefinitionsAreLiveNowhere) {
  auto M = parseSingleFunctionOrDie(R"(
func @loopkill(%n) {
entry:
  %i = const 0
  %t = const 0
  br h
h:
  %c = cmplt %i, %n
  cbr %c, b, e
b:
  %t = add %i, %i
  %i = add %i, 1
  br h
e:
  ret %i
}
)");
  Function &F = *M->functions()[0];
  Liveness L(F);
  Variable *T = F.findVariable("t");
  Variable *I = F.findVariable("i");
  for (const auto &B : F.blocks()) {
    EXPECT_FALSE(L.isLiveIn(B.get(), T)) << B->name();
    EXPECT_FALSE(L.isLiveOut(B.get(), T)) << B->name();
  }
  EXPECT_TRUE(L.isLiveIn(F.findBlock("b"), I));
  EXPECT_TRUE(L.isLiveOut(F.findBlock("b"), I));
  EXPECT_TRUE(L.isLiveIn(F.findBlock("e"), I));
  expectMatchesReference(F, F.name());
}

TEST(LivenessTest, RedefinedParameterIsLiveIntoEntryOnlyWhereUnkilled) {
  auto M = parseSingleFunctionOrDie(R"(
func @paramredef(%a, %c) {
entry:
  cbr %c, l, r
l:
  %a = const 5
  br j
r:
  br j
j:
  ret %a
}
)");
  Function &F = *M->functions()[0];
  Liveness L(F);
  Variable *A = F.findVariable("a");
  EXPECT_TRUE(L.isLiveIn(F.entry(), A));
  EXPECT_FALSE(L.isLiveIn(F.findBlock("l"), A));
  EXPECT_TRUE(L.isLiveOut(F.findBlock("l"), A));
  EXPECT_TRUE(L.isLiveIn(F.findBlock("r"), A));
  expectMatchesReference(F, F.name());
}

TEST(LivenessTest, SelfLoopUseAboveRedefinition) {
  // %i is read before it is redefined in l: upward-exposed at l although l
  // defines it, and live around the self edge.
  auto M = parseSingleFunctionOrDie(R"(
func @selfloop(%n) {
entry:
  %i = const 0
  br l
l:
  %i = add %i, 1
  %c = cmplt %i, %n
  cbr %c, l, x
x:
  ret %i
}
)");
  Function &F = *M->functions()[0];
  Liveness L(F);
  BasicBlock *Loop = F.findBlock("l");
  Variable *I = F.findVariable("i");
  EXPECT_TRUE(L.isLiveIn(Loop, I));
  EXPECT_TRUE(L.isLiveOut(Loop, I));
  EXPECT_TRUE(L.isLiveOut(F.entry(), I));
  EXPECT_FALSE(L.isLiveIn(F.entry(), I));
  expectMatchesReference(F, F.name());
}

TEST(LivenessTest, NeverDefinedNameIsLiveIntoEntry) {
  // Non-strict input is accepted: a name no instruction defines is, like a
  // parameter, upward-exposed all the way into the entry block.
  auto M = parseSingleFunctionOrDie(R"(
func @ghost(%c) {
entry:
  cbr %c, l, r
l:
  %y = add %ghost, 1
  ret %y
r:
  ret %c
}
)");
  Function &F = *M->functions()[0];
  Liveness L(F);
  Variable *Ghost = F.findVariable("ghost");
  EXPECT_TRUE(L.isLiveIn(F.entry(), Ghost));
  EXPECT_FALSE(L.isLiveIn(F.findBlock("r"), Ghost));
  expectMatchesReference(F, F.name());
}

TEST(LivenessTest, AgreesWithReferenceBeforeSSA) {
  for (const RoutineSpec &Spec : kernelSuite()) {
    auto M = Spec.materialize();
    for (auto &F : M->functions())
      expectMatchesReference(*F, Spec.Name);
  }
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    Module M;
    GeneratorOptions Opts;
    Opts.Seed = Seed;
    Opts.SizeBudget = 40 + static_cast<unsigned>(Seed) * 17;
    Opts.NumVars = 11;
    Function *F = generateProgram(M, "g" + std::to_string(Seed), Opts);
    expectMatchesReference(*F, F->name());
  }
  for (const std::string &Text :
       {shapes::diamondChain(300), shapes::wideJoin(200),
        shapes::loopNests(6, 16)}) {
    auto M = parseSingleFunctionOrDie(Text);
    expectMatchesReference(*M->functions()[0], M->functions()[0]->name());
  }
}

TEST(LivenessTest, AgreesWithReferenceAfterDestructionAndAllocation) {
  // The multi-definition code each pipeline leaves behind: phi copies of
  // Standard and New, Briggs* webs, and spill-rewritten allocations.
  MachineModel Machine = uniformMachine(4);
  for (const RoutineSpec &Spec : kernelSuite()) {
    for (PipelineKind Kind :
         {PipelineKind::Standard, PipelineKind::New,
          PipelineKind::BriggsImproved}) {
      for (bool Allocate : {false, true}) {
        auto M = Spec.materialize();
        PipelineOptions Opts;
        Opts.Kind = Kind;
        Opts.Machine = Allocate ? &Machine : nullptr;
        for (auto &F : M->functions()) {
          runPipeline(*F, Opts);
          expectMatchesReference(*F, Spec.Name + " " + pipelineName(Kind) +
                                         (Allocate ? " allocated" : ""));
        }
      }
    }
  }
}

TEST(LivenessTest, BytesIsNonZero) {
  auto M = parseSingleFunctionOrDie(testprogs::SumLoop);
  Liveness L(*M->functions()[0]);
  EXPECT_GT(L.bytes(), 0u);
}

} // namespace
