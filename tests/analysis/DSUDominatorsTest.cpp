//===- tests/analysis/DSUDominatorsTest.cpp -------------------------------===//
//
// The DSU dominator engine against the iterative fixed point
// (fuzz/ReferenceDominators.h), in both directions: DominatorTree over the
// CFG and PostDominatorTree over the reverse CFG with its virtual exit.
// The (post)dominator tree of a graph is unique, so the two must agree on
// every idom, on every program we can throw at them — the canonical
// fixtures, every hand-written kernel, generator programs before and after
// sccp,adce,pre, irreducible and multi-return CFGs, the large shapes, and a
// pathologically deep chain (which doubles as a recursion-safety check).
// The forward tree's unreachable-block precondition is covered too.
//
//===----------------------------------------------------------------------===//

#include "analysis/DominatorTree.h"

#include "../common/LargeShapes.h"
#include "../common/TestPrograms.h"
#include "analysis/CFGUtils.h"
#include "fuzz/ReferenceDominators.h"
#include "ir/BasicBlock.h"
#include "ir/Function.h"
#include "ir/IRParser.h"
#include "ir/Module.h"
#include "opt/PassManager.h"
#include "ssa/SSABuilder.h"
#include "workload/KernelSuite.h"
#include "workload/ProgramGenerator.h"
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

using namespace fcc;

namespace {

/// Both trees over \p F against the reference.
void expectAgrees(const Function &F, const std::string &Context) {
  std::string Detail;
  EXPECT_TRUE(compareDominators(F, Detail)) << Context << ": " << Detail;
  EXPECT_TRUE(comparePostDominators(F, Detail)) << Context << ": " << Detail;
}

TEST(DSUDominatorsTest, AgreesOnCanonicalPrograms) {
  const char *Programs[] = {
      testprogs::StraightLine, testprogs::SumLoop,  testprogs::Diamond,
      testprogs::VirtualSwap,  testprogs::SwapLoop, testprogs::LostCopy,
      testprogs::ArraySum,     testprogs::NestedLoops};
  for (const char *Text : Programs) {
    auto M = parseSingleFunctionOrDie(Text);
    Function &F = *M->functions()[0];
    expectAgrees(F, F.name());
    // Critical-edge splitting reshapes the CFG the way the pipeline does;
    // the algorithms must agree on that shape too.
    splitCriticalEdges(F);
    expectAgrees(F, F.name() + " (split)");
  }
}

TEST(DSUDominatorsTest, AgreesOnEveryKernel) {
  for (const RoutineSpec &Spec : kernelSuite()) {
    auto M = Spec.materialize();
    for (auto &F : M->functions()) {
      splitCriticalEdges(*F);
      expectAgrees(*F, Spec.Name);
    }
  }
}

TEST(DSUDominatorsTest, AgreesOnGeneratorSweep) {
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    Module M;
    GeneratorOptions Opts;
    Opts.Seed = Seed;
    Opts.SizeBudget = 40 + static_cast<unsigned>(Seed) * 17;
    Opts.NumVars = 11;
    Function *F = generateProgram(M, "g" + std::to_string(Seed), Opts);
    splitCriticalEdges(*F);
    expectAgrees(*F, F->name());
  }
}

TEST(DSUDominatorsTest, DeepChainIsIterativelySafe) {
  // A straight chain thousands of blocks deep: any recursive DFS, eval or
  // decoration pass would blow the stack here, and the idoms are exactly
  // the chain itself, so the answer is checkable in closed form.
  constexpr unsigned Depth = 20000;
  std::string Text = "func @deep(%a) {\nentry:\n  br b0\n";
  for (unsigned I = 0; I != Depth; ++I) {
    Text += "b" + std::to_string(I) + ":\n";
    Text += I + 1 == Depth ? std::string("  ret %a\n")
                           : "  br b" + std::to_string(I + 1) + "\n";
  }
  Text += "}\n";
  auto M = parseSingleFunctionOrDie(Text);
  Function &F = *M->functions()[0];
  DominatorTree Dsu(F);
  PostDominatorTree PDT(F);
  ASSERT_TRUE(PDT.complete());
  const BasicBlock *Prev = F.entry();
  EXPECT_EQ(Dsu.idom(Prev), nullptr);
  for (unsigned I = 0; I != Depth; ++I) {
    const BasicBlock *B = F.findBlock("b" + std::to_string(I));
    ASSERT_NE(B, nullptr);
    EXPECT_EQ(Dsu.idom(B), Prev);
    EXPECT_EQ(Dsu.preorder(B), I + 1);
    EXPECT_EQ(Dsu.maxPreorder(B), Depth);
    EXPECT_EQ(PDT.ipdom(Prev), B);
    Prev = B;
  }
  expectAgrees(F, "deep chain");
}

TEST(DSUDominatorsTest, UnreachableBlocksThrow) {
  // The forward tree's checked precondition (it replaced an assert that
  // NDEBUG compiled away): a block unreachable from entry corrupts the RPO
  // and every downstream pass, so construction must refuse, in release
  // builds too.
  auto M = parseSingleFunctionOrDie(R"(
func @unreach(%a) {
entry:
  ret %a
island:
  br island
}
)");
  Function &F = *M->functions()[0];
  try {
    DominatorTree DT(F);
    FAIL() << "construction over an unreachable block must throw";
  } catch (const std::invalid_argument &E) {
    EXPECT_NE(std::string(E.what()).find("unreachable"), std::string::npos)
        << "diagnostic should name the problem: " << E.what();
  }
}

TEST(DSUDominatorsTest, IrreducibleCfgAgrees) {
  // Two loop headers jumping into each other — irreducible control flow,
  // where naive interval-style reasoning breaks; the engine must still
  // agree with the reference in both directions (the unique idom of both
  // headers is the entry branch, and exit postdominates everything).
  auto M = parseSingleFunctionOrDie(R"(
func @irreducible(%c) {
entry:
  cbr %c, h1, h2
h1:
  %x = const 1
  cbr %x, h2, exit
h2:
  %y = const 2
  cbr %y, h1, exit
exit:
  ret %c
}
)");
  Function &F = *M->functions()[0];
  expectAgrees(F, "irreducible");
  DominatorTree Dsu(F);
  EXPECT_EQ(Dsu.idom(F.findBlock("h1")), F.entry());
  EXPECT_EQ(Dsu.idom(F.findBlock("h2")), F.entry());
  EXPECT_EQ(Dsu.idom(F.findBlock("exit")), F.entry());
  PostDominatorTree PDT(F);
  ASSERT_TRUE(PDT.complete());
  for (const char *Name : {"entry", "h1", "h2"})
    EXPECT_EQ(PDT.ipdom(F.findBlock(Name)), F.findBlock("exit")) << Name;
  EXPECT_EQ(PDT.ipdom(F.findBlock("exit")), nullptr);
}

TEST(DSUDominatorsTest, AgreesOnGeneratorProgramsBeforeAndAfterPasses) {
  // 200 fuzzer-shaped programs, in SSA form and again after the pass
  // sequence whose ADCE reads the postdominators and may fold branches
  // and delete blocks.
  const std::vector<PassKind> Passes = {PassKind::Sccp, PassKind::Adce,
                                        PassKind::Pre};
  unsigned Complete = 0;
  for (unsigned Run = 0; Run != 200; ++Run) {
    Module M;
    Function *F = generateProgram(M, "r" + std::to_string(Run),
                                  fuzzerOptionsForRun(/*MasterSeed=*/16, Run));
    splitCriticalEdges(*F);
    buildSSA(*F, DominatorTree(*F));
    expectAgrees(*F, F->name());
    Complete += PostDominatorTree(*F).complete();
    runPassSequence(*F, Passes);
    splitCriticalEdges(*F);
    expectAgrees(*F, F->name() + " after sccp,adce,pre");
  }
  // The comparison skips functions with a block that reaches no ret; most
  // generated programs must actually be compared.
  EXPECT_GT(Complete, 100u);
}

TEST(DSUDominatorsTest, PostdominatorsOfMultiReturnFunctions) {
  // Three returns: the virtual exit is the only common postdominator of
  // the branches that split towards them, so those get nullptr; blocks on
  // a path to one return are postdominated by it.
  auto M = parseSingleFunctionOrDie(R"(
func @rets(%a, %b) {
entry:
  cbr %a, left, right
left:
  cbr %b, l1, l2
l1:
  ret %a
l2:
  br tail
right:
  br tail
tail:
  %x = add %a, %b
  ret %x
}
)");
  Function &F = *M->functions()[0];
  expectAgrees(F, "multi-return");
  PostDominatorTree PDT(F);
  ASSERT_TRUE(PDT.complete());
  auto Block = [&](const char *Name) { return F.findBlock(Name); };
  EXPECT_EQ(PDT.ipdom(Block("entry")), nullptr);
  EXPECT_EQ(PDT.ipdom(Block("left")), nullptr);
  EXPECT_EQ(PDT.ipdom(Block("l1")), nullptr);
  EXPECT_EQ(PDT.ipdom(Block("l2")), Block("tail"));
  EXPECT_EQ(PDT.ipdom(Block("right")), Block("tail"));
  EXPECT_EQ(PDT.ipdom(Block("tail")), nullptr);
  // Control dependence: l1 and l2 hang on left's branch, left and right on
  // entry's, and tail on both (left can bypass it through l1).
  auto CD = PDT.controlDependence();
  auto On = [&](const char *Name) { return CD[Block(Name)->id()]; };
  using Deps = std::vector<const BasicBlock *>;
  EXPECT_EQ(On("l1"), Deps{Block("left")});
  EXPECT_EQ(On("l2"), Deps{Block("left")});
  EXPECT_EQ(On("right"), Deps{Block("entry")});
  EXPECT_EQ(On("left"), Deps{Block("entry")});
  EXPECT_EQ(On("tail"), (Deps{Block("entry"), Block("left")}));
  EXPECT_TRUE(On("entry").empty());
}

TEST(DSUDominatorsTest, PostdominatorsNeedEveryBlockToReachARet) {
  // A loop with no way out: the reverse CFG from the virtual exit cannot
  // reach it, so the tree reports itself incomplete (ADCE then keeps every
  // branch), and the comparison agrees that there is nothing to compare.
  auto M = parseSingleFunctionOrDie(R"(
func @spin(%c) {
entry:
  cbr %c, done, loop
loop:
  br loop
done:
  ret %c
}
)");
  Function &F = *M->functions()[0];
  EXPECT_FALSE(PostDominatorTree(F).complete());
  expectAgrees(F, "spin");
}

TEST(DSUDominatorsTest, AgreesOnLargeShapes) {
  for (const std::string &Text :
       {shapes::diamondChain(300), shapes::wideJoin(300),
        shapes::loopNests(8)}) {
    auto M = parseSingleFunctionOrDie(Text);
    Function &F = *M->functions()[0];
    splitCriticalEdges(F);
    expectAgrees(F, F.name());
    EXPECT_TRUE(PostDominatorTree(F).complete()) << F.name();
  }
}

} // namespace
