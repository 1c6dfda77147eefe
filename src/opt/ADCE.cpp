//===- opt/ADCE.cpp -------------------------------------------------------===//

#include "opt/ADCE.h"

#include "opt/PassManager.h"

#include "analysis/DominatorTree.h"
#include "ir/BasicBlock.h"
#include "ir/Function.h"
#include "ir/Variable.h"

#include <memory>
#include <unordered_set>
#include <vector>

using namespace fcc;

ADCEStats fcc::runADCE(Function &F) {
  ADCEStats Stats;
  const unsigned N = F.numBlocks();

  // Postdominators and control dependence. An unreturning region (some
  // block reaches no ret) forbids branch surgery, since it could
  // accidentally restore termination; then every terminator stays live.
  PostDominatorTree PDT(F);
  const bool CanRetarget = PDT.complete();
  std::vector<std::vector<const BasicBlock *>> RDF(N);
  if (CanRetarget)
    RDF = PDT.controlDependence();

  // Defining instruction of each variable (parameters have none).
  std::vector<Instruction *> DefOf(F.numVariables(), nullptr);
  for (const auto &B : F.blocks()) {
    for (const auto &Phi : B->phis())
      DefOf[Phi->getDef()->id()] = Phi.get();
    for (const auto &I : B->insts())
      if (I->getDef())
        DefOf[I->getDef()->id()] = I.get();
  }

  // Live-marking fixpoint.
  std::unordered_set<const Instruction *> Live;
  std::vector<Instruction *> Worklist;
  std::vector<unsigned char> BlockHasLive(N, 0);
  auto MarkLive = [&](Instruction *I) {
    if (Live.insert(I).second)
      Worklist.push_back(I);
  };
  for (const auto &B : F.blocks())
    for (const auto &I : B->insts())
      switch (I->opcode()) {
      case Opcode::Ret:
      case Opcode::Store:
      case Opcode::Spill:
        MarkLive(I.get());
        break;
      // Br and CondBr are NOT roots (when retargeting is allowed): a
      // block whose only content is its terminator must count as dead, or
      // every branch would be control-dependent-live through its arms and
      // the retargeting step below could never fire. The instruction
      // sweep never deletes terminators, so unrooted branches survive
      // unless retargeting bypasses them.
      case Opcode::Br:
      case Opcode::CondBr:
        if (!CanRetarget)
          MarkLive(I.get());
        break;
      default:
        break;
      }
  while (!Worklist.empty()) {
    Instruction *I = Worklist.back();
    Worklist.pop_back();
    BasicBlock *B = I->getParent();
    if (!BlockHasLive[B->id()]) {
      BlockHasLive[B->id()] = 1;
      for (const BasicBlock *X : RDF[B->id()])
        MarkLive(X->terminator());
    }
    I->forEachUsedVar([&](Variable *V) {
      if (Instruction *Def = DefOf[V->id()])
        MarkLive(Def);
    });
    if (I->isPhi())
      for (BasicBlock *P : B->preds())
        MarkLive(P->terminator());
  }

  // Delete the dead phis and dead non-terminator instructions.
  for (const auto &B : F.blocks()) {
    std::vector<Instruction *> Doomed;
    for (const auto &Phi : B->phis())
      if (!Live.count(Phi.get()))
        Doomed.push_back(Phi.get());
    for (Instruction *Phi : Doomed) {
      B->erasePhi(Phi);
      ++Stats.PhisRemoved;
    }
    Doomed.clear();
    for (const auto &I : B->insts())
      if (!I->isTerminator() && !Live.count(I.get()))
        Doomed.push_back(I.get());
    for (Instruction *I : Doomed) {
      B->eraseInst(I);
      ++Stats.InstsRemoved;
    }
  }

  // Retarget each dead conditional branch at the nearest postdominator
  // holding anything live; everything bypassed is dead by the fixpoint
  // (a live instruction there would have marked this branch live through
  // its reverse dominance frontier).
  if (CanRetarget) {
    for (const auto &B : F.blocks()) {
      Instruction *Term = B->terminator();
      if (Term->opcode() != Opcode::CondBr || Live.count(Term))
        continue;
      BasicBlock *R = PDT.ipdom(B.get());
      while (R && !BlockHasLive[R->id()])
        R = PDT.ipdom(R);
      if (!R)
        continue; // No live postdominator; leave the branch alone.
      BasicBlock *Succ0 = Term->getSuccessor(0);
      BasicBlock *Succ1 = Term->getSuccessor(1);
      if (Succ0 == Succ1) {
        // Parallel edges; any phi distinguishing them would have kept this
        // branch live, so collapsing to one edge is safe.
        Succ0->removePredEdge(B.get());
        R = Succ0;
      } else if (R == Succ0 || R == Succ1) {
        (R == Succ0 ? Succ1 : Succ0)->removePredEdge(B.get());
      } else {
        if (!R->phis().empty())
          continue; // A new edge cannot invent phi operands; keep the branch.
        Succ0->removePredEdge(B.get());
        Succ1->removePredEdge(B.get());
        F.addPredEdge(R, B.get());
      }
      B->eraseInst(Term);
      B->append(std::make_unique<Instruction>(Opcode::Br, nullptr,
                                              std::vector<Operand>{},
                                              std::vector<BasicBlock *>{R}));
      ++Stats.BranchesFolded;
    }
    if (Stats.BranchesFolded) {
      Stats.BlocksRemoved = F.removeUnreachableBlocks();
      demoteSinglePredPhis(F);
    }
  }
  return Stats;
}
