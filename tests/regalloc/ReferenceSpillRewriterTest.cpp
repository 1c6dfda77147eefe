//===- tests/regalloc/ReferenceSpillRewriterTest.cpp ----------------------===//
//
// The allocator's worklist simplify and the spill rewriter's victim-sized
// analyses must not change a single decision. This file keeps the direct
// versions as a reference: simplify rescans every node per push, and each
// split attempt rebuilds the dominator tree, the loops and whole-function
// liveness, and each rewrite scans the whole function. The library must
// match it exactly (rewritten text, RegisterOf, ClassOf, spill order and
// every SpillRewriteResult counter) over the kernels, a generated sweep and
// the large shapes, on every machine model, with and without
// sccp,adce,pre.
//
//===----------------------------------------------------------------------===//

#include "regalloc/SpillRewriter.h"

#include "../common/LargeShapes.h"
#include "analysis/DominatorTree.h"
#include "analysis/Liveness.h"
#include "analysis/LoopInfo.h"
#include "baseline/InterferenceGraph.h"
#include "ir/BasicBlock.h"
#include "ir/Function.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Module.h"
#include "ir/Variable.h"
#include "opt/PassManager.h"
#include "pipeline/Pipeline.h"
#include "workload/KernelSuite.h"
#include "workload/ProgramGenerator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

using namespace fcc;

namespace {
namespace reference {

RegAllocResult allocateRegisters(const Function &F,
                                 const RegAllocOptions &Opts) {
  assert(F.phiCount() == 0 && "allocate after SSA destruction");
  MachineModel Uniform;
  const MachineModel *MM = Opts.Machine;
  if (!MM) {
    assert(Opts.NumRegisters > 0 && "need at least one register");
    Uniform = uniformMachine(Opts.NumRegisters);
    MM = &Uniform;
  }
  unsigned N = F.numVariables();
  unsigned NumClasses = static_cast<unsigned>(MM->Classes.size());

  auto Flagged = [](const std::vector<bool> *Flags, unsigned Id) {
    return Flags && Id < Flags->size() && (*Flags)[Id];
  };

  // The coloring universe: every variable except the stack-resident ones,
  // which hold no register and must not contribute interference (notably
  // not the calling convention's pairwise parameter edges).
  std::vector<Variable *> Nodes;
  Nodes.reserve(N);
  for (const auto &V : F.variables())
    if (!Flagged(Opts.StackResident, V->id()))
      Nodes.push_back(V.get());

  Liveness LV(F);
  InterferenceGraph::BuildOptions BuildOpts;
  BuildOpts.BuildAdjacencyLists = true;
  BuildOpts.Restrict = &Nodes;
  InterferenceGraph Graph(F, LV, BuildOpts);

  RegAllocResult Result;
  Result.ClassOf = classifyVariables(F, *MM);
  std::vector<unsigned> ClassK(NumClasses), ClassBase(NumClasses);
  for (unsigned C = 0; C != NumClasses; ++C) {
    ClassK[C] = MM->Classes[C].NumRegisters;
    ClassBase[C] = MM->classBase(C);
  }

  // Spill costs: uses and defs weighted 10^depth, Chaitin's classic metric.
  DominatorTree DT(F);
  LoopInfo LI(DT);
  std::vector<double> Cost(N, 0.0);
  for (const auto &B : F.blocks()) {
    double Weight = 1.0;
    for (unsigned D = LI.loopDepth(B.get()); D != 0; --D)
      Weight *= 10.0;
    for (const auto &I : B->insts()) {
      I->forEachUsedVar([&](Variable *V) { Cost[V->id()] += Weight; });
      if (Variable *Def = I->getDef())
        Cost[Def->id()] += Weight;
    }
  }

  // Only same-class neighbors compete for colors: classes own disjoint
  // global index ranges, so a cross-class edge never constrains a color
  // choice. Degrees below are therefore same-class degrees.
  auto SameClassDegree = [&](const Variable *V) {
    unsigned Deg = 0;
    for (unsigned Neighbor : Graph.neighbors(V))
      if (Result.ClassOf[Graph.nodeVariable(Neighbor)->id()] ==
          Result.ClassOf[V->id()])
        ++Deg;
    return Deg;
  };

  // Simplify: peel nodes whose same-class degree is below their class's
  // bank size; when stuck, push the cheapest (cost / degree) candidate
  // optimistically.
  std::vector<unsigned> CurDegree(N, 0);
  std::vector<bool> OnStack(N, false);
  for (const Variable *V : Nodes)
    CurDegree[V->id()] = SameClassDegree(V);

  std::vector<const Variable *> Stack;
  Stack.reserve(Nodes.size());
  unsigned RemainingNodes = static_cast<unsigned>(Nodes.size());
  while (RemainingNodes != 0) {
    const Variable *Picked = nullptr;
    // Prefer any trivially colorable node (deterministic: lowest id).
    for (const Variable *V : Nodes)
      if (!OnStack[V->id()] &&
          CurDegree[V->id()] < ClassK[Result.ClassOf[V->id()]]) {
        Picked = V;
        break;
      }
    if (!Picked) {
      // Blocked: choose the best spill candidate but push it anyway —
      // Briggs's optimism defers the decision to select. Dissolved spill
      // machinery (InfiniteCost) is only ever picked when nothing else
      // remains: re-spilling it cannot reduce interference.
      bool BestInfinite = true;
      double Best = 0.0;
      for (const Variable *V : Nodes) {
        if (OnStack[V->id()])
          continue;
        bool Infinite = Flagged(Opts.InfiniteCost, V->id());
        double Ratio = Cost[V->id()] / (CurDegree[V->id()] + 1.0);
        if (!Picked || (BestInfinite && !Infinite) ||
            (BestInfinite == Infinite && Ratio < Best)) {
          Picked = V;
          Best = Ratio;
          BestInfinite = Infinite;
        }
      }
    }
    OnStack[Picked->id()] = true;
    Stack.push_back(Picked);
    --RemainingNodes;
    for (unsigned Neighbor : Graph.neighbors(Picked)) {
      unsigned Id = Graph.nodeVariable(Neighbor)->id();
      if (!OnStack[Id] && CurDegree[Id] > 0 &&
          Result.ClassOf[Id] == Result.ClassOf[Picked->id()])
        --CurDegree[Id];
    }
  }

  // Select: pop and color against already-colored neighbors, inside the
  // node's class range.
  Result.RegisterOf.assign(N, -1);
  std::vector<bool> UsedColor(MM->totalRegisters(), false);
  while (!Stack.empty()) {
    const Variable *V = Stack.back();
    Stack.pop_back();
    std::fill(UsedColor.begin(), UsedColor.end(), false);
    for (unsigned Neighbor : Graph.neighbors(V)) {
      int Reg = Result.RegisterOf[Graph.nodeVariable(Neighbor)->id()];
      if (Reg >= 0)
        UsedColor[static_cast<unsigned>(Reg)] = true;
    }
    unsigned C = Result.ClassOf[V->id()];
    int Free = -1;
    for (unsigned R = ClassBase[C], E = ClassBase[C] + ClassK[C]; R != E; ++R)
      if (!UsedColor[R]) {
        Free = static_cast<int>(R);
        break;
      }
    if (Free < 0) {
      Result.Spilled.push_back(V);
      continue;
    }
    Result.RegisterOf[V->id()] = Free;
  }

  // Distinct registers in the (possibly partial) assignment — see the
  // RegAllocResult contract in the header.
  std::vector<bool> Seen(MM->totalRegisters(), false);
  for (int Reg : Result.RegisterOf)
    if (Reg >= 0 && !Seen[static_cast<unsigned>(Reg)]) {
      Seen[static_cast<unsigned>(Reg)] = true;
      ++Result.RegistersUsed;
    }
  return Result;
}

/// Fresh variable whose name cannot collide with an existing one, so the
/// rewritten function still round-trips through the textual printer/parser.
Variable *freshTemp(Function &F, unsigned &Counter) {
  for (;;) {
    std::string Name = "st" + std::to_string(Counter++);
    if (!F.findVariable(Name))
      return F.makeVariable(Name);
  }
}

BasicBlock *freshBlock(Function &F, unsigned &Counter) {
  for (;;) {
    std::string Name = "spb" + std::to_string(Counter++);
    if (!F.findBlock(Name))
      return F.makeBlock(Name);
  }
}

std::unique_ptr<Instruction> makeSpill(Variable *V, unsigned Slot) {
  return std::make_unique<Instruction>(
      Opcode::Spill, nullptr,
      std::vector<Operand>{Operand::var(V),
                           Operand::imm(static_cast<int64_t>(Slot))});
}

std::unique_ptr<Instruction> makeReload(Variable *Def, unsigned Slot) {
  return std::make_unique<Instruction>(
      Opcode::Reload, Def,
      std::vector<Operand>{Operand::imm(static_cast<int64_t>(Slot))});
}

void markFlag(std::vector<bool> &Flags, unsigned Id) {
  if (Flags.size() <= Id)
    Flags.resize(Id + 1, false);
  Flags[Id] = true;
}

/// Spill-everywhere rewrite of one victim: reload into a fresh temporary
/// before every use, store from a fresh temporary after every def, one
/// entry store for parameters. After this the victim itself is referenced
/// only by the parameter store (or not at all). Every fresh temporary is
/// flagged in \p NoSpill — its range is already minimal, so the allocator
/// must never pick it over a long range (see RegAllocOptions).
void spillEverywhere(Function &F, Variable *V, unsigned Slot,
                     unsigned &TempCounter, std::vector<bool> &NoSpill,
                     SpillRewriteResult &R) {
  for (const auto &B : F.blocks()) {
    for (unsigned Idx = 0; Idx < B->insts().size(); ++Idx) {
      Instruction *I = B->insts()[Idx].get();
      if (I->uses(V)) {
        Variable *T = freshTemp(F, TempCounter);
        markFlag(NoSpill, T->id());
        B->insertAt(Idx, makeReload(T, Slot));
        ++Idx; // I moved one position down.
        I->forEachUse([&](Operand &O) {
          if (O.getVar() == V)
            O = Operand::var(T);
        });
        ++R.Reloads;
      }
      if (I->getDef() == V) {
        Variable *T = freshTemp(F, TempCounter);
        markFlag(NoSpill, T->id());
        I->setDef(T);
        B->insertAt(Idx + 1, makeSpill(T, Slot));
        ++Idx; // Skip the store we just inserted.
        ++R.SpillStores;
      }
    }
  }
  if (F.isParam(V)) {
    // Parameters are defined on entry; their slot is written once there.
    F.entry()->insertAt(0, makeSpill(V, Slot));
    ++R.SpillStores;
  }
}

/// Live-range splitting: when the victim crosses a loop without any use or
/// def inside it, store it on the loop-entry edges and reload it on the
/// exit edges where it is still live. Returns false when no such loop
/// exists (caller falls back to spill-everywhere).
bool trySplitAroundLoop(Function &F, Variable *V, unsigned Slot,
                        unsigned &BlockCounter, SpillRewriteResult &R) {
  // Fresh analyses every attempt: earlier victims in the same round may
  // already have rewritten the function.
  DominatorTree DT(F);
  LoopInfo LI(DT);
  Liveness LV(F);

  const Loop *Best = nullptr;
  std::vector<bool> BestIn;
  for (const Loop &L : LI.loops()) {
    if (L.Header == F.entry())
      continue; // No entry edge exists to hold the store.
    if (!LV.isLiveIn(L.Header, V))
      continue;
    bool Referenced = false;
    for (const BasicBlock *B : L.Blocks) {
      for (const auto &I : B->insts())
        if (I->uses(V) || I->getDef() == V) {
          Referenced = true;
          break;
        }
      if (Referenced)
        break;
    }
    if (Referenced)
      continue;
    // Prefer the largest qualifying region (ties: lowest header id) — it
    // removes the most interference per split.
    if (!Best || L.Blocks.size() > Best->Blocks.size() ||
        (L.Blocks.size() == Best->Blocks.size() &&
         L.Header->id() < Best->Header->id()))
      Best = &L;
  }
  if (!Best)
    return false;

  std::vector<bool> InLoop(F.numBlocks(), false);
  for (const BasicBlock *B : Best->Blocks)
    InLoop[B->id()] = true;

  // Exit edges where the victim is still live. Collected before any
  // mutation: splitting inserts blocks, which would invalidate iteration.
  struct ExitEdge {
    BasicBlock *From;
    unsigned SuccIdx;
    BasicBlock *To;
  };
  std::vector<ExitEdge> Exits;
  for (BasicBlock *B : Best->Blocks) {
    Instruction *Term = B->terminator();
    for (unsigned SI = 0, E = Term->getNumSuccessors(); SI != E; ++SI) {
      BasicBlock *S = Term->getSuccessor(SI);
      if (!InLoop[S->id()] && LV.isLiveIn(S, V))
        Exits.push_back({B, SI, S});
    }
  }
  if (Exits.empty())
    return false;

  // Store on every entering edge (the predecessor is outside the loop, so
  // this executes once per loop entry, not per iteration). The victim is
  // defined on every path reaching these edges because it is live into the
  // header of a strict program.
  for (BasicBlock *P : Best->Header->preds())
    if (!InLoop[P->id()]) {
      P->insertBeforeTerminator(makeSpill(V, Slot));
      ++R.SpillStores;
    }

  // Reload on a dedicated block per exit edge. Landing the reload in the
  // successor itself would be wrong when the successor is also reachable
  // around the loop — that path never wrote the slot.
  for (const ExitEdge &Edge : Exits) {
    BasicBlock *E = freshBlock(F, BlockCounter);
    E->append(makeReload(V, Slot));
    E->append(std::make_unique<Instruction>(
        Opcode::Br, nullptr, std::vector<Operand>{},
        std::vector<BasicBlock *>{Edge.To}));
    Edge.From->terminator()->setSuccessor(Edge.SuccIdx, E);
    Edge.To->replacePred(Edge.From, E);
    F.addPredEdge(E, Edge.From);
    ++R.Reloads;
  }
  ++R.RangesSplit;
  return true;
}

SpillRewriteResult insertSpillCode(Function &F,
                                   const SpillRewriteOptions &Opts) {
  assert(F.phiCount() == 0 && "spill rewriting runs after SSA destruction");
  assert(!Opts.Machine.Classes.empty() && "machine model has no classes");
  RegAllocOptions AllocOpts;
  AllocOpts.Machine = &Opts.Machine;

  SpillRewriteResult R;
  unsigned NextSlot = 0;
  unsigned TempCounter = 0;
  unsigned BlockCounter = 0;
  // Each variable gets at most one splitting attempt; a re-spilled victim
  // falls through to spill-everywhere, which removes it from contention
  // for good. This is what bounds the iteration count in practice.
  std::vector<bool> SplitTried;
  // Spill machinery the allocator must not pick as a victim again: fresh
  // reload/store temporaries and dissolved victims (their ranges are
  // already minimal).
  std::vector<bool> NoSpill;
  // Parameters dissolved by spill-everywhere become stack-passed: their
  // entry `spill` models the caller's argument store, so they leave the
  // coloring problem entirely (a function with more parameters than
  // registers could never color otherwise — the calling convention makes
  // parameters interfere pairwise).
  std::vector<bool> StackResident;
  AllocOpts.InfiniteCost = &NoSpill;
  AllocOpts.StackResident = &StackResident;

  for (unsigned Iter = 1; Iter <= Opts.MaxIterations; ++Iter) {
    R.Alloc = reference::allocateRegisters(F, AllocOpts);
    R.Iterations = Iter;
    if (R.Alloc.Spilled.empty())
      return R;

    if (SplitTried.size() < F.numVariables())
      SplitTried.resize(F.numVariables(), false);
    for (const Variable *Victim : R.Alloc.Spilled) {
      Variable *V = const_cast<Variable *>(Victim);
      unsigned Slot = NextSlot++;
      R.SlotsUsed = NextSlot;
      if (Opts.SplitLiveRanges && !SplitTried[V->id()]) {
        SplitTried[V->id()] = true;
        if (trySplitAroundLoop(F, V, Slot, BlockCounter, R))
          continue;
      }
      spillEverywhere(F, V, Slot, TempCounter, NoSpill, R);
      if (F.isParam(V))
        markFlag(StackResident, V->id());
      else
        markFlag(NoSpill, V->id());
    }
  }
  throw std::runtime_error(
      "spill rewriting did not converge within " +
      std::to_string(Opts.MaxIterations) + " iterations on function '" +
      F.name() + "' (machine " + Opts.Machine.Name + ")");
}

} // namespace reference

/// Everything one rewrite decides, in comparable form.
struct Outcome {
  std::string Text;
  std::vector<int> RegisterOf;
  std::vector<unsigned> ClassOf;
  std::vector<unsigned> Spilled;
  unsigned RegistersUsed = 0;
  unsigned Iterations = 0, SpillStores = 0, Reloads = 0, RangesSplit = 0,
           SlotsUsed = 0;
  std::string Error; ///< The non-convergence message, if it threw.
};

std::vector<unsigned> idsOf(const std::vector<const Variable *> &Vars) {
  std::vector<unsigned> Ids;
  for (const Variable *V : Vars)
    Ids.push_back(V->id());
  return Ids;
}

Outcome rewrite(Function &F, const MachineModel &Machine, bool Reference) {
  SpillRewriteOptions Opts;
  Opts.Machine = Machine;
  Outcome O;
  try {
    SpillRewriteResult R = Reference ? reference::insertSpillCode(F, Opts)
                                     : insertSpillCode(F, Opts);
    O.RegisterOf = R.Alloc.RegisterOf;
    O.ClassOf = R.Alloc.ClassOf;
    O.Spilled = idsOf(R.Alloc.Spilled);
    O.RegistersUsed = R.Alloc.RegistersUsed;
    O.Iterations = R.Iterations;
    O.SpillStores = R.SpillStores;
    O.Reloads = R.Reloads;
    O.RangesSplit = R.RangesSplit;
    O.SlotsUsed = R.SlotsUsed;
  } catch (const std::runtime_error &E) {
    O.Error = E.what();
  }
  O.Text = printFunction(F);
  return O;
}

void expectSameOutcome(const Outcome &Ref, const Outcome &Got,
                       const std::string &Label) {
  EXPECT_EQ(Ref.Error, Got.Error) << Label;
  EXPECT_EQ(Ref.Iterations, Got.Iterations) << Label;
  EXPECT_EQ(Ref.SpillStores, Got.SpillStores) << Label;
  EXPECT_EQ(Ref.Reloads, Got.Reloads) << Label;
  EXPECT_EQ(Ref.RangesSplit, Got.RangesSplit) << Label;
  EXPECT_EQ(Ref.SlotsUsed, Got.SlotsUsed) << Label;
  EXPECT_EQ(Ref.RegistersUsed, Got.RegistersUsed) << Label;
  EXPECT_EQ(Ref.RegisterOf, Got.RegisterOf) << Label;
  EXPECT_EQ(Ref.ClassOf, Got.ClassOf) << Label;
  EXPECT_EQ(Ref.Spilled, Got.Spilled) << Label;
  EXPECT_TRUE(Ref.Text == Got.Text) << Label << ": rewritten text differs";
}

const char *const kMachines[] = {"uniform2", "uniform3", "uniform4",
                                 "uniform8", "dsp",      "embedded"};

/// Builds two identical copies of a module: each copy goes through the
/// pipeline and one of the two rewriters, so variable ids (the allocator's
/// tie-breaks) are the pipeline's own, not a reparse's.
using ModuleMaker = std::function<std::unique_ptr<Module>()>;

/// What a batch of comparisons exercised, so a sweep that stopped
/// spilling (and so compared nothing interesting) fails loudly.
struct Coverage {
  unsigned Rewrites = 0;   ///< Functions that needed spill code at all.
  unsigned Split = 0;      ///< ... with at least one range split.
  unsigned Dissolved = 0;  ///< ... with spill-everywhere temporaries.
  unsigned MultiRound = 0; ///< ... that took three or more rounds.
};

/// Compiles both copies with New (after \p Passes) and compares the
/// reference and the library rewrite on \p MachineName.
void expectSameRewrite(const ModuleMaker &Make, const char *MachineName,
                       const std::vector<PassKind> &Passes,
                       const std::string &Name, Coverage &Seen) {
  MachineModel Machine;
  ASSERT_TRUE(parseMachineModel(MachineName, Machine)) << MachineName;
  std::unique_ptr<Module> RefM = Make(), GotM = Make();
  ASSERT_EQ(RefM->functions().size(), GotM->functions().size());
  PipelineOptions PO;
  PO.Kind = PipelineKind::New;
  PO.Passes = Passes;
  for (size_t I = 0; I != RefM->functions().size(); ++I) {
    Function &RefF = *RefM->functions()[I];
    Function &GotF = *GotM->functions()[I];
    runPipeline(RefF, PO);
    runPipeline(GotF, PO);
    ASSERT_EQ(printFunction(RefF), printFunction(GotF)) << Name;
    std::string Label = Name + "/" + RefF.name() + "/" + MachineName +
                        (Passes.empty() ? "" : "+" + passSequenceName(Passes));
    Outcome Ref = rewrite(RefF, Machine, /*Reference=*/true);
    expectSameOutcome(Ref, rewrite(GotF, Machine, /*Reference=*/false),
                      Label);
    if (Ref.Iterations > 1) {
      ++Seen.Rewrites;
      Seen.Split += Ref.RangesSplit != 0;
      Seen.Dissolved += Ref.SpillStores + Ref.Reloads > 2 * Ref.RangesSplit;
      Seen.MultiRound += Ref.Iterations > 2;
    }
  }
}

std::vector<std::vector<PassKind>> passVariants() {
  std::vector<PassKind> Opt;
  bool Ok = parsePassSequence("sccp,adce,pre", Opt);
  EXPECT_TRUE(Ok);
  return {{}, Opt};
}

void expectSameEverywhere(const ModuleMaker &Make, const std::string &Name,
                          Coverage &Seen) {
  for (const std::vector<PassKind> &Passes : passVariants())
    for (const char *MachineName : kMachines)
      expectSameRewrite(Make, MachineName, Passes, Name, Seen);
}

void expectExercised(const Coverage &Seen) {
  EXPECT_GT(Seen.Rewrites, 0u);
  EXPECT_GT(Seen.Split, 0u);
  EXPECT_GT(Seen.Dissolved, 0u);
  EXPECT_GT(Seen.MultiRound, 0u);
}

ModuleMaker fromText(std::string Text) {
  return [Text = std::move(Text)] { return parseSingleFunctionOrDie(Text); };
}

/// \p Loops sequential loops, each with \p Values values defined before it,
/// live straight through it and summed after it: every loop overflows a
/// small bank with ranges the loop never touches (the split's shape).
std::string sequentialRegions(unsigned Loops, unsigned Values) {
  auto Num = [](unsigned V) { return std::to_string(V); };
  std::string T = "func @regions(%a, %n) {\nentry:\n  %s = const 0\n"
                  "  br pre0\n";
  for (unsigned K = 0; K != Loops; ++K) {
    T += "pre" + Num(K) + ":\n";
    for (unsigned J = 0; J != Values; ++J)
      T += "  %v" + Num(J) + " = mul %a, " + Num((K * Values + J) % 97 + 1) +
           "\n";
    T += "  %i = const 0\n  br head" + Num(K) + "\nhead" + Num(K) +
         ":\n  %c = cmplt %i, %n\n  cbr %c, body" + Num(K) + ", post" +
         Num(K) + "\nbody" + Num(K) + ":\n  %t = mul %i, 3\n"
         "  %s = add %s, %t\n  %i = add %i, 1\n  br head" + Num(K) +
         "\npost" + Num(K) + ":\n";
    for (unsigned J = 0; J != Values; ++J)
      T += "  %s = add %s, %v" + Num(J) + "\n";
    T += "  br pre" + Num(K + 1) + "\n";
  }
  T += "pre" + Num(Loops) + ":\n  ret %s\n}\n";
  return T;
}

TEST(ReferenceSpillRewriterTest, KernelsMatchOnEveryMachine) {
  Coverage Seen;
  for (const RoutineSpec &Spec : kernelSuite())
    expectSameEverywhere([&] { return Spec.materialize(); }, Spec.Name, Seen);
  expectExercised(Seen);
}

TEST(ReferenceSpillRewriterTest, GeneratedSweepMatchesOnEveryMachine) {
  Coverage Seen;
  for (unsigned Run = 0; Run != 200; ++Run) {
    GeneratorOptions Opts = fuzzerOptionsForRun(/*MasterSeed=*/14, Run);
    expectSameEverywhere(
        [&] {
          auto M = std::make_unique<Module>();
          generateProgram(*M, "g" + std::to_string(Run), Opts);
          return M;
        },
        "gen" + std::to_string(Run), Seen);
  }
  expectExercised(Seen);
}

TEST(ReferenceSpillRewriterTest, LargeShapesMatchOnEveryMachine) {
  Coverage Seen;
  expectSameEverywhere(fromText(shapes::diamondChain(120)), "diamonds", Seen);
  expectSameEverywhere(fromText(shapes::wideJoin(80)), "widejoin", Seen);
  expectSameEverywhere(fromText(shapes::loopNests(3, 16)), "loopnests", Seen);
  expectSameEverywhere(fromText(sequentialRegions(6, 12)), "regions", Seen);
  expectExercised(Seen);
}

/// A clique of equal-cost values on one bank: simplify blocks at once and
/// every blocked pick is a tie, decided by the InfiniteCost flag first and
/// the id second. Flagging every third value means both parts of the key
/// decide picks.
TEST(ReferenceSpillRewriterTest, InfiniteCostTieBreakMatches) {
  std::string T = "func @clique(%a) {\nentry:\n";
  constexpr unsigned Values = 9;
  for (unsigned J = 0; J != Values; ++J)
    T += "  %v" + std::to_string(J) + " = add %a, " + std::to_string(J) + "\n";
  T += "  %s = const 0\n";
  for (unsigned J = 0; J != Values; ++J)
    T += "  %s = add %s, %v" + std::to_string(J) + "\n";
  T += "  ret %s\n}\n";
  auto M = parseSingleFunctionOrDie(T);
  const Function &F = *M->functions()[0];

  for (unsigned K : {2u, 3u, 4u}) {
    for (unsigned Stride : {1u, 2u, 3u}) {
      std::vector<bool> Infinite(F.numVariables(), false);
      for (unsigned Id = 0; Id < F.numVariables(); Id += Stride)
        Infinite[Id] = Stride != 1; // Stride 1: nothing flagged.
      RegAllocOptions Opts;
      Opts.NumRegisters = K;
      Opts.InfiniteCost = &Infinite;
      RegAllocResult Ref = reference::allocateRegisters(F, Opts);
      RegAllocResult Got = allocateRegisters(F, Opts);
      std::string Label = "uniform" + std::to_string(K) + "/stride" +
                          std::to_string(Stride);
      ASSERT_FALSE(Ref.Spilled.empty()) << Label << ": no blocked picks";
      EXPECT_EQ(Ref.RegisterOf, Got.RegisterOf) << Label;
      EXPECT_EQ(idsOf(Ref.Spilled), idsOf(Got.Spilled)) << Label;
      EXPECT_EQ(Ref.RegistersUsed, Got.RegistersUsed) << Label;
    }
  }
}

/// More parameters than a two-register bank holds: the rewriter turns some
/// of them stack-resident, and the allocator must drop those from the
/// graph exactly as the reference does.
TEST(ReferenceSpillRewriterTest, StackResidentParametersMatch) {
  std::string T = "func @params(%a, %b, %c, %d, %e) {\nentry:\n"
                  "  %s1 = add %a, %b\n  %s2 = add %c, %d\n"
                  "  %s3 = mul %s1, %s2\n  %s4 = sub %s3, %e\n"
                  "  %s5 = add %s4, %a\n  %s6 = add %s5, %d\n  ret %s6\n}\n";
  Coverage Seen;
  for (const char *MachineName : kMachines)
    expectSameRewrite(fromText(T), MachineName, {}, "params", Seen);
  EXPECT_GT(Seen.Rewrites, 0u);

  auto M = parseSingleFunctionOrDie(T);
  const Function &F = *M->functions()[0];
  for (unsigned Stride : {1u, 2u, 3u}) {
    std::vector<bool> Resident(F.numVariables(), false);
    for (const Variable *P : F.params())
      Resident[P->id()] = P->id() % Stride == 0;
    RegAllocOptions Opts;
    Opts.NumRegisters = 2;
    Opts.StackResident = &Resident;
    RegAllocResult Ref = reference::allocateRegisters(F, Opts);
    RegAllocResult Got = allocateRegisters(F, Opts);
    EXPECT_EQ(Ref.RegisterOf, Got.RegisterOf) << "stride " << Stride;
    EXPECT_EQ(idsOf(Ref.Spilled), idsOf(Got.Spilled)) << "stride " << Stride;
  }
}

} // namespace
