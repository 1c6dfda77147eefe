//===- regalloc/GraphColoringAllocator.cpp --------------------------------===//

#include "regalloc/GraphColoringAllocator.h"

#include "analysis/DominatorTree.h"
#include "analysis/Liveness.h"
#include "analysis/LoopInfo.h"
#include "baseline/InterferenceGraph.h"
#include "ir/BasicBlock.h"
#include "ir/Function.h"
#include "ir/Variable.h"
#include "regalloc/MachineModel.h"

#include <algorithm>
#include <functional>
#include <queue>

using namespace fcc;

RegAllocResult fcc::allocateRegisters(const Function &F,
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
  // bank size, lowest id first; when stuck, push the cheapest (cost /
  // degree) candidate optimistically. Two worklists give that order without
  // rescanning the remaining nodes per push:
  //
  //  - Ready holds the trivially colorable nodes, a min-heap by id. Degrees
  //    only fall, so a node crosses below its bank size at most once and
  //    enters Ready at most once; nothing ever leaves it but a pop.
  //  - Blocked holds every other node under a (dissolved, cost / (degree +
  //    1), id) key computed when the entry was pushed. Degrees only fall,
  //    so a node's true key only rises: an entry whose degree is stale is
  //    re-keyed when it reaches the top, and a fresh entry at the top is
  //    the true minimum. Dissolved spill machinery (InfiniteCost) sorts
  //    after everything else: re-spilling it cannot reduce interference.
  std::vector<unsigned> CurDegree(N, 0);
  std::vector<bool> OnStack(N, false);
  for (const Variable *V : Nodes)
    CurDegree[V->id()] = SameClassDegree(V);

  auto Colorable = [&](unsigned Id) {
    return CurDegree[Id] < ClassK[Result.ClassOf[Id]];
  };
  struct Candidate {
    bool Infinite;
    double Ratio;
    unsigned Id;
    unsigned Degree; ///< CurDegree[Id] when the key was computed.
    /// Heap order: the cheapest candidate compares greatest.
    bool operator<(const Candidate &O) const {
      if (Infinite != O.Infinite)
        return Infinite;
      if (Ratio != O.Ratio)
        return Ratio > O.Ratio;
      return Id > O.Id;
    }
  };
  auto KeyOf = [&](unsigned Id) {
    return Candidate{Flagged(Opts.InfiniteCost, Id),
                     Cost[Id] / (CurDegree[Id] + 1.0), Id, CurDegree[Id]};
  };
  std::priority_queue<unsigned, std::vector<unsigned>, std::greater<>> Ready;
  std::priority_queue<Candidate> Blocked;
  for (const Variable *V : Nodes) {
    if (Colorable(V->id()))
      Ready.push(V->id());
    else
      Blocked.push(KeyOf(V->id()));
  }

  std::vector<const Variable *> Stack;
  Stack.reserve(Nodes.size());
  while (Stack.size() != Nodes.size()) {
    unsigned Picked;
    if (!Ready.empty()) {
      Picked = Ready.top();
      Ready.pop();
    } else {
      // Every remaining node is blocked, so Blocked holds an entry for
      // each; stack members' leftovers are dropped on the way.
      for (;;) {
        Candidate Top = Blocked.top();
        Blocked.pop();
        if (OnStack[Top.Id])
          continue;
        if (Top.Degree != CurDegree[Top.Id]) {
          Blocked.push(KeyOf(Top.Id));
          continue;
        }
        Picked = Top.Id;
        break;
      }
    }
    const Variable *PickedVar = F.variable(Picked);
    OnStack[Picked] = true;
    Stack.push_back(PickedVar);
    for (unsigned Neighbor : Graph.neighbors(PickedVar)) {
      unsigned Id = Graph.nodeVariable(Neighbor)->id();
      if (!OnStack[Id] && CurDegree[Id] > 0 &&
          Result.ClassOf[Id] == Result.ClassOf[Picked]) {
        bool WasColorable = Colorable(Id);
        --CurDegree[Id];
        if (!WasColorable && Colorable(Id))
          Ready.push(Id);
      }
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
