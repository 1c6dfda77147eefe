//===- ssa/SSABuilder.cpp -------------------------------------------------===//

#include "ssa/SSABuilder.h"

#include "analysis/DominanceFrontier.h"
#include "analysis/DominatorTree.h"
#include "analysis/Liveness.h"
#include "ir/BasicBlock.h"
#include "ir/Function.h"
#include "ir/Variable.h"
#include "support/IndexSet.h"

#include <vector>

using namespace fcc;

namespace {

/// Renaming state: one stack of current SSA names per original variable.
class Renamer {
public:
  Renamer(Function &F, const DominatorTree &DT, bool FoldCopies,
          unsigned NumOriginals, SSABuildStats &Stats)
      : F(F), DT(DT), FoldCopies(FoldCopies), Stacks(NumOriginals),
        Counter(NumOriginals, 0), NumOriginals(NumOriginals), Stats(Stats) {
    // Parameters enter with themselves as version zero.
    for (Variable *P : F.params())
      Stacks[P->id()].push_back(P);
  }

  void run();

private:
  Variable *fresh(Variable *Orig) {
    Variable *V = F.makeVariable(
        Orig->name() + "." + std::to_string(++Counter[Orig->id()]), Orig);
    ++Stats.NamesCreated;
    return V;
  }

  /// Current SSA name for original \p Orig; null when no definition reaches
  /// this point (only possible for values that are dead here, by strictness).
  Variable *current(Variable *Orig) {
    auto &S = Stacks[Orig->id()];
    return S.empty() ? nullptr : S.back();
  }

  /// Replaces a use of an original variable with its current SSA name. Uses
  /// of names that cannot be reached by a definition are dead by strictness;
  /// they become the constant 0 so the IR stays well formed.
  void rewriteUse(Operand &O) {
    Variable *Orig = O.getVar();
    assert(Orig->id() < NumOriginals && "use already renamed");
    if (Variable *Cur = current(Orig))
      O.setVar(Cur);
    else
      O = Operand::imm(0);
  }

  /// Renames \p B's phis and body and fills its successors' phi operands,
  /// recording the names it pushes and the copies it folds.
  void renameBlock(BasicBlock *B);

  Function &F;
  const DominatorTree &DT;
  bool FoldCopies;
  std::vector<std::vector<Variable *>> Stacks; // indexed by original var id
  std::vector<unsigned> Counter;               // indexed by original var id
  unsigned NumOriginals;
  SSABuildStats &Stats;
  // Names pushed and copies folded along the current dominator-tree path,
  // in order; each open block owns a suffix of both.
  std::vector<Variable *> Pushed;
  std::vector<Instruction *> Folded;
};

void Renamer::run() {
  // Preorder over the dominator tree with an explicit stack: a long
  // straight chain makes the tree as deep as the function is long. A block
  // is closed after all of its children: its folded copies are erased and
  // its names popped in reverse.
  struct Frame {
    BasicBlock *B;
    size_t NextChild;
    size_t PushedMark;
    size_t FoldedMark;
  };
  std::vector<Frame> Open;
  auto Enter = [&](BasicBlock *B) {
    Open.push_back({B, 0, Pushed.size(), Folded.size()});
    renameBlock(B);
  };
  Enter(F.entry());
  while (!Open.empty()) {
    Frame &Top = Open.back();
    const std::vector<BasicBlock *> &Kids = DT.children(Top.B);
    if (Top.NextChild != Kids.size()) {
      Enter(Kids[Top.NextChild++]); // Invalidates Top.
      continue;
    }
    Top.B->eraseInsts(std::span(Folded).subspan(Top.FoldedMark));
    Folded.resize(Top.FoldedMark);
    for (size_t I = Pushed.size(); I-- != Top.PushedMark;)
      Stacks[Pushed[I]->id()].pop_back();
    Pushed.resize(Top.PushedMark);
    Open.pop_back();
  }
}

void Renamer::renameBlock(BasicBlock *B) {
  // Phi definitions first: they define at the top of the block.
  for (const auto &Phi : B->phis()) {
    Variable *Orig = Phi->getDef();
    assert(Orig->id() < NumOriginals && "phi already renamed");
    Variable *New = fresh(Orig);
    Phi->setDef(New);
    Stacks[Orig->id()].push_back(New);
    Pushed.push_back(Orig);
  }

  for (const auto &I : B->insts()) {
    I->forEachUse([&](Operand &O) { rewriteUse(O); });

    Variable *Def = I->getDef();
    if (!Def)
      continue;
    assert(Def->id() < NumOriginals && "def already renamed");

    if (FoldCopies && I->isCopy() && I->getOperand(0).isVar()) {
      // Copy folding: the destination's uses read the source's current name
      // directly; the copy disappears.
      Stacks[Def->id()].push_back(I->getOperand(0).getVar());
      Pushed.push_back(Def);
      Folded.push_back(I.get());
      ++Stats.CopiesFolded;
      continue;
    }
    if (FoldCopies && I->isCopy() && I->getOperand(0).isImm()) {
      // The source use was rewritten to the constant 0 placeholder (dead by
      // strictness); keep the instruction as a constant definition.
      Variable *New = fresh(Def);
      I->setDef(New);
      Stacks[Def->id()].push_back(New);
      Pushed.push_back(Def);
      continue;
    }

    Variable *New = fresh(Def);
    I->setDef(New);
    Stacks[Def->id()].push_back(New);
    Pushed.push_back(Def);
  }

  // Fill phi operands of CFG successors for the edges leaving B.
  for (BasicBlock *S : B->terminator()->successors()) {
    unsigned SlotIdx = S->predIndex(B);
    for (const auto &Phi : S->phis()) {
      Operand &O = Phi->getOperand(SlotIdx);
      if (O.isVar() && O.getVar()->id() < NumOriginals)
        rewriteUse(O);
    }
  }
}

} // namespace

SSABuildStats fcc::buildSSA(Function &F, const DominatorTree &DT,
                            const SSABuildOptions &Opts) {
  assert(F.phiCount() == 0 && "function already has phis");
  SSABuildStats Stats;

  unsigned NumOriginals = F.numVariables();
  unsigned NumBlocks = F.numBlocks();

  DominanceFrontier DF(DT);
  size_t SideBytes = DF.bytes();

  // Per-variable definition blocks; parameters are defined at the entry.
  std::vector<std::vector<BasicBlock *>> DefBlocks(NumOriginals);
  IndexSet Globals(NumOriginals); // Upward-exposed names, for SemiPruned.
  for (const auto &B : F.blocks()) {
    IndexSet Defined(NumOriginals);
    for (const auto &I : B->insts()) {
      I->forEachUsedVar([&](Variable *V) {
        if (!Defined.test(V->id()))
          Globals.insert(V->id()); // Upward exposed somewhere.
      });
      if (Variable *Def = I->getDef()) {
        if (DefBlocks[Def->id()].empty() ||
            DefBlocks[Def->id()].back() != B.get())
          DefBlocks[Def->id()].push_back(B.get());
        Defined.insert(Def->id());
      }
    }
  }
  for (Variable *P : F.params()) {
    auto &DB = DefBlocks[P->id()];
    if (DB.empty() || DB.front() != F.entry())
      DB.insert(DB.begin(), F.entry());
  }

  // Liveness is needed only for the pruned flavor.
  std::unique_ptr<Liveness> Live;
  if (Opts.Flavor == SSAFlavor::Pruned) {
    Live = std::make_unique<Liveness>(F);
    SideBytes += Live->bytes();
  }

  // Iterated dominance frontier phi placement (worklist per variable). The
  // has-phi marker uses generation stamps so no per-variable set is
  // allocated or cleared.
  std::vector<unsigned> PhiStamp(NumBlocks, 0);
  unsigned Generation = 0;
  SideBytes += PhiStamp.capacity() * sizeof(unsigned);
  std::vector<BasicBlock *> Work;
  for (unsigned VarId = 0; VarId != NumOriginals; ++VarId) {
    if (DefBlocks[VarId].empty())
      continue; // Used but never defined: dead by strictness.
    if (Opts.Flavor == SSAFlavor::SemiPruned && !Globals.test(VarId))
      continue; // Name never crosses a block boundary.

    Variable *V = F.variable(VarId);
    ++Generation;
    Work = DefBlocks[VarId];
    while (!Work.empty()) {
      BasicBlock *B = Work.back();
      Work.pop_back();
      for (BasicBlock *Frontier : DF.frontier(B)) {
        if (PhiStamp[Frontier->id()] == Generation)
          continue;
        if (Opts.Flavor == SSAFlavor::Pruned && !Live->isLiveIn(Frontier, V))
          continue; // Pruned: dead at this join.
        PhiStamp[Frontier->id()] = Generation;
        std::vector<Operand> Ops(Frontier->getNumPreds(), Operand::var(V));
        Frontier->addPhi(
            std::make_unique<Instruction>(Opcode::Phi, V, std::move(Ops)));
        ++Stats.PhisInserted;
        Work.push_back(Frontier);
      }
    }
  }

  // Rename.
  Renamer R(F, DT, Opts.FoldCopies, NumOriginals, Stats);
  R.run();

  Stats.PeakBytes = SideBytes + NumOriginals * sizeof(void *) * 3;
  return Stats;
}

bool fcc::verifySSAForm(const Function &F, const DominatorTree &DT,
                        std::string &Error) {
  std::vector<const Instruction *> DefSite(F.numVariables(), nullptr);
  auto RecordDef = [&](const Instruction &I) {
    Variable *Def = I.getDef();
    if (!Def)
      return true;
    if (DefSite[Def->id()]) {
      Error = "variable '" + Def->name() + "' has more than one definition";
      return false;
    }
    DefSite[Def->id()] = &I;
    return true;
  };
  for (const auto &B : F.blocks()) {
    for (const auto &I : B->phis())
      if (!RecordDef(*I))
        return false;
    for (const auto &I : B->insts())
      if (!RecordDef(*I))
        return false;
  }
  for (const Variable *P : F.params())
    if (DefSite[P->id()]) {
      Error = "parameter '" + P->name() + "' is redefined";
      return false;
    }

  // Why a use is not reached by its definition, or nullptr when it is: a
  // definition in block D reaches a use in block U when D strictly
  // dominates U, or D == U and the def precedes the use in the body.
  auto UseProblem = [&](const Variable *V, const BasicBlock *UseBlock,
                        const Instruction *UseInst) -> const char * {
    if (F.isParam(V))
      return nullptr; // Defined at entry, which dominates everything.
    const Instruction *Def = DefSite[V->id()];
    if (!Def)
      return "is used but never defined";
    const BasicBlock *DefBlock = Def->getParent();
    if (DefBlock != UseBlock)
      return DT.strictlyDominates(DefBlock, UseBlock)
                 ? nullptr
                 : "is not dominated by its definition";
    if (Def->isPhi())
      return nullptr; // Phi defs precede the whole body.
    for (const auto &I : UseBlock->insts()) {
      if (I.get() == Def)
        return nullptr; // Def first.
      if (I.get() == UseInst)
        return "is used above its definition";
    }
    assert(false && "use not found in its own block");
    return "is not found in its own block";
  };

  for (const auto &B : F.blocks()) {
    for (const auto &I : B->phis()) {
      for (unsigned Idx = 0, E = I->getNumOperands(); Idx != E; ++Idx) {
        const Operand &O = I->getOperand(Idx);
        if (!O.isVar())
          continue;
        const BasicBlock *P = B->preds()[Idx];
        // The use happens at the end of the predecessor (footnote 1 of the
        // paper: the move happens along the incoming edge).
        const Variable *V = O.getVar();
        const Instruction *Def = F.isParam(V) ? nullptr : DefSite[V->id()];
        if (!F.isParam(V)) {
          if (!Def) {
            Error = "phi operand '" + V->name() + "' has no definition";
            return false;
          }
          if (!DT.dominates(Def->getParent(), P)) {
            Error = "phi operand '" + V->name() +
                    "' does not dominate the edge from '" + P->name() + "'";
            return false;
          }
        }
      }
    }
    for (const auto &I : B->insts()) {
      bool Ok = true;
      I->forEachUsedVar([&](Variable *V) {
        const char *Problem = Ok ? UseProblem(V, B.get(), I.get()) : nullptr;
        if (Problem) {
          Error = "variable '" + V->name() + "' in block '" + B->name() +
                  "' " + Problem;
          Ok = false;
        }
      });
      if (!Ok)
        return false;
    }
  }
  return true;
}
