//===- opt/DeadCodeElim.cpp -----------------------------------------------===//

#include "opt/DeadCodeElim.h"

#include "analysis/Liveness.h"
#include "ir/BasicBlock.h"
#include "ir/Function.h"
#include "ir/Variable.h"
#include "support/IndexSet.h"

#include <vector>

using namespace fcc;

unsigned fcc::eliminateDeadCode(Function &F) {
  unsigned TotalRemoved = 0;

  while (true) {
    Liveness LV(F);
    unsigned Removed = 0;

    for (const auto &B : F.blocks()) {
      // Backward walk with the exact live set; an instruction whose result
      // is not live right after it executes contributes nothing.
      IndexSet Live(F.numVariables(), LV.liveOut(B.get()));
      std::vector<Instruction *> Dead;
      for (auto It = B->insts().rbegin(), E = B->insts().rend(); It != E;
           ++It) {
        Instruction &I = **It;
        Variable *Def = I.getDef();
        if (Def && !Live.test(Def->id())) {
          Dead.push_back(&I);
          continue; // Its uses never become live.
        }
        if (Def)
          Live.erase(Def->id());
        I.forEachUsedVar([&](Variable *V) { Live.insert(V->id()); });
      }
      for (Instruction *I : Dead)
        B->eraseInst(I);
      Removed += static_cast<unsigned>(Dead.size());

      // A phi is dead when its result is neither used in the block nor
      // live out of it; Live now holds liveness at the top of the body.
      std::vector<Instruction *> DeadPhis;
      for (const auto &Phi : B->phis())
        if (!Live.test(Phi->getDef()->id()))
          DeadPhis.push_back(Phi.get());
      for (Instruction *Phi : DeadPhis)
        B->erasePhi(Phi);
      Removed += static_cast<unsigned>(DeadPhis.size());
    }

    TotalRemoved += Removed;
    if (Removed == 0)
      return TotalRemoved;
  }
}
