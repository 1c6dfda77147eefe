//===- analysis/DominanceFrontier.cpp -------------------------------------===//

#include "analysis/DominanceFrontier.h"

#include "ir/BasicBlock.h"
#include "ir/Function.h"

#include <algorithm>

using namespace fcc;

DominanceFrontier::DominanceFrontier(const DominatorTree &DT) : DT(DT) {
  const Function &F = DT.function();
  Frontiers.assign(F.numBlocks(), {});

  for (const auto &B : F.blocks()) {
    if (B->getNumPreds() < 2)
      continue;
    for (BasicBlock *P : B->preds()) {
      BasicBlock *Runner = P;
      while (Runner != DT.idom(B.get())) {
        // An earlier predecessor's walk already added B from here up to
        // idom(B); without this stop a wide join pushes O(preds^2)
        // duplicates for the sort below to remove.
        auto &DF = Frontiers[Runner->id()];
        if (!DF.empty() && DF.back() == B.get())
          break;
        DF.push_back(B.get());
        Runner = DT.idom(Runner);
        assert(Runner && "ran past the entry while walking to idom");
      }
    }
  }

  for (auto &DF : Frontiers) {
    std::sort(DF.begin(), DF.end(), [](const BasicBlock *A,
                                       const BasicBlock *B) {
      return A->id() < B->id();
    });
    DF.erase(std::unique(DF.begin(), DF.end()), DF.end());
  }
}

const std::vector<BasicBlock *> &
DominanceFrontier::frontier(const BasicBlock *B) const {
  assert(B->id() < Frontiers.size() && "foreign block");
  return Frontiers[B->id()];
}

size_t DominanceFrontier::bytes() const {
  size_t Total = Frontiers.capacity() * sizeof(std::vector<BasicBlock *>);
  for (const auto &DF : Frontiers)
    Total += DF.capacity() * sizeof(BasicBlock *);
  return Total;
}
