//===- fuzz/ReferenceLiveness.cpp -----------------------------------------===//

#include "fuzz/ReferenceLiveness.h"

#include "analysis/Liveness.h"
#include "ir/BasicBlock.h"
#include "ir/Function.h"
#include "ir/Variable.h"

using namespace fcc;

ReferenceLiveness::ReferenceLiveness(const Function &F) {
  const unsigned NumBlocks = F.numBlocks(), NumVars = F.numVariables();
  In.assign(NumBlocks, IndexSet(NumVars));
  Out.assign(NumBlocks, IndexSet(NumVars));

  // Per-block upward-exposed uses (direct uses only; phi operands belong to
  // edges) and definitions (including phi results). PhiUse[b] collects the
  // variables feeding a successor's phis along an edge out of b; they are
  // live out of b.
  std::vector<IndexSet> UEVar(NumBlocks, IndexSet(NumVars));
  std::vector<IndexSet> DefVar(NumBlocks, IndexSet(NumVars));
  std::vector<IndexSet> PhiUse(NumBlocks, IndexSet(NumVars));
  for (const auto &B : F.blocks()) {
    IndexSet &UE = UEVar[B->id()];
    IndexSet &Defs = DefVar[B->id()];
    for (const auto &Phi : B->phis())
      Defs.insert(Phi->getDef()->id());
    for (const auto &I : B->insts()) {
      I->forEachUsedVar([&](Variable *V) {
        if (!Defs.test(V->id()))
          UE.insert(V->id());
      });
      if (Variable *Def = I->getDef())
        Defs.insert(Def->id());
    }
    for (const auto &Phi : B->phis())
      for (unsigned Idx = 0, E = Phi->getNumOperands(); Idx != E; ++Idx) {
        const Operand &O = Phi->getOperand(Idx);
        if (O.isVar())
          PhiUse[B->preds()[Idx]->id()].insert(O.getVar()->id());
      }
  }

  // Round-robin to a fixed point, iterating blocks in reverse id order as a
  // cheap approximation of postorder (converges regardless of order).
  IndexSet Scratch(NumVars);
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned Idx = NumBlocks; Idx-- != 0;) {
      Scratch = PhiUse[Idx];
      for (const BasicBlock *S : F.block(Idx)->terminator()->successors())
        Scratch.unionWith(In[S->id()]);
      Changed |= Out[Idx].unionWith(Scratch);
      Scratch.subtract(DefVar[Idx]);
      Scratch.unionWith(UEVar[Idx]);
      Changed |= In[Idx].unionWith(Scratch);
    }
  }
}

const IndexSet &ReferenceLiveness::liveIn(const BasicBlock *B) const {
  return In[B->id()];
}

const IndexSet &ReferenceLiveness::liveOut(const BasicBlock *B) const {
  return Out[B->id()];
}

bool fcc::compareLiveness(const Function &F, const Liveness &LV,
                          std::string &Detail) {
  ReferenceLiveness Ref(F);
  // Both sides list members in increasing id order, so one merge-style
  // pass finds the smallest id on which they differ.
  auto Compare = [&](const BasicBlock *B, const char *Side,
                     std::span<const unsigned> Got, const IndexSet &Want) {
    std::vector<unsigned> Expected;
    Want.forEach([&](unsigned Id) { Expected.push_back(Id); });
    size_t I = 0;
    while (I != Got.size() && I != Expected.size() && Got[I] == Expected[I])
      ++I;
    if (I == Got.size() && I == Expected.size())
      return true;
    bool Extra = I == Expected.size() ||
                 (I != Got.size() && Got[I] < Expected[I]);
    unsigned Id = Extra ? Got[I] : Expected[I];
    Detail = std::string(Side) + "(" + B->name() + "): %" +
             F.variable(Id)->name() +
             (Extra ? " is live, reference says dead"
                    : " is dead, reference says live");
    return false;
  };
  for (const auto &B : F.blocks())
    if (!Compare(B.get(), "live-in", LV.liveIn(B.get()), Ref.liveIn(B.get())) ||
        !Compare(B.get(), "live-out", LV.liveOut(B.get()),
                 Ref.liveOut(B.get())))
      return false;
  return true;
}
