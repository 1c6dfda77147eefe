//===- fuzz/ReferenceCoalescer.cpp ----------------------------------------===//

#include "fuzz/ReferenceCoalescer.h"

#include "analysis/DominatorTree.h"
#include "analysis/Liveness.h"
#include "ir/Function.h"
#include "ir/Variable.h"

#include <algorithm>

using namespace fcc;

void ReferenceCoalescer::resetMembers() {
  Members.assign(F.numVariables(), {});
}

void ReferenceCoalescer::collectMembers(unsigned Root,
                                        std::vector<unsigned> &Out) {
  if (Members[Root].empty())
    Out.push_back(Root);
  else
    Out.insert(Out.end(), Members[Root].begin(), Members[Root].end());
}

void ReferenceCoalescer::mergeMembers(unsigned Keep, unsigned Lose) {
  std::vector<unsigned> A, B, Merged;
  collectMembers(Keep, A);
  collectMembers(Lose, B);
  Merged.resize(A.size() + B.size());
  std::merge(A.begin(), A.end(), B.begin(), B.end(), Merged.begin(),
             [&](unsigned L, unsigned R) { return sortKey(L) < sortKey(R); });
  Members[Keep] = std::move(Merged);
  Members[Lose].clear();
}

bool ReferenceCoalescer::setsWouldInterfere(unsigned Keep, unsigned Lose) {
  // One merge pass feeds the Figure 1 stack scan directly: the scan's stack
  // at the moment member v is attached is v's ancestor chain.
  std::vector<unsigned> MA, MB, Stack;
  collectMembers(Keep, MA);
  collectMembers(Lose, MB);
  size_t IA = 0, IB = 0;
  while (IA != MA.size() || IB != MB.size()) {
    unsigned Id;
    if (IB == MB.size() ||
        (IA != MA.size() && sortKey(MA[IA]) <= sortKey(MB[IB])))
      Id = MA[IA++];
    else
      Id = MB[IB++];

    const BasicBlock *IdBlock = DefBlock[Id];
    unsigned Pre = DT.preorder(IdBlock);
    while (!Stack.empty() && Pre > DT.maxPreorder(DefBlock[Stack.back()]))
      Stack.pop_back();

    // Every same-block ancestor, then the nearest different-block one
    // (the Lemma 3.1 region argument makes that one sufficient).
    for (size_t K = Stack.size(); K-- > 0;) {
      unsigned Anc = Stack[K];
      if (DefBlock[Anc] == IdBlock) {
        if (localOverlap(Anc, Id))
          return true;
        continue;
      }
      if (LV.isLiveOut(IdBlock, F.variable(Anc)))
        return true;
      if (LV.isLiveIn(IdBlock, F.variable(Anc)) && localOverlap(Anc, Id))
        return true;
      break;
    }
    Stack.push_back(Id);
  }
  return false;
}

bool fcc::compareWithReference(Function &F, const DominatorTree &DT,
                               const Liveness &LV,
                               const FastCoalescerOptions &Opts,
                               std::string &Detail) {
  FastCoalescer Shipped(F, DT, LV, Opts);
  ReferenceCoalescer Reference(F, DT, LV, Opts);
  Shipped.computePartition();
  Reference.computePartition();
  for (unsigned Id = 0, E = F.numVariables(); Id != E; ++Id) {
    const Variable *V = F.variable(Id);
    if (Shipped.rep(V) == Reference.rep(V))
      continue;
    Detail = std::string(Opts.EagerSetChecks ? "eager" : "lazy") + ": " +
             V->name() + " -> " + Shipped.rep(V)->name() + ", reference " +
             Reference.rep(V)->name();
    return false;
  }
  return true;
}
