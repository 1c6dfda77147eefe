//===- analysis/DSUDominators.cpp -----------------------------------------===//
//
// Semidominators by link-eval disjoint set union (Lengauer-Tarjan step 2),
// immediate dominators by the SemiNCA derivation. Everything after the DFS
// works in DFS-preorder index space: a vertex *is* its preorder number, so
// the "minimum semidominator" comparisons the forest performs are plain
// unsigned comparisons and the per-vertex state is four flat arrays.
//
//===----------------------------------------------------------------------===//

#include "analysis/DSUDominators.h"

#include "ir/BasicBlock.h"
#include "ir/Function.h"
#include "support/UnionFind.h"

#include <algorithm>
#include <numeric>
#include <utility>

using namespace fcc;

IndexGraph IndexGraph::build(const Function &F, bool Reverse) {
  const unsigned N = F.numBlocks();
  IndexGraph G;
  G.Root = Reverse ? N : F.entry()->id();
  // A block's CFG successors are its successors forward and its
  // predecessors in reverse, and the other way round.
  auto &OutBegin = Reverse ? G.PredBegin : G.SuccBegin;
  auto &OutIds = Reverse ? G.PredIds : G.SuccIds;
  auto &InBegin = Reverse ? G.SuccBegin : G.PredBegin;
  auto &InIds = Reverse ? G.SuccIds : G.PredIds;
  OutBegin.push_back(0);
  InBegin.push_back(0);
  std::vector<unsigned> Returns;
  for (const auto &B : F.blocks()) {
    if (B->hasTerminator()) {
      const Instruction *Term = B->terminator();
      for (const BasicBlock *S : Term->successors())
        OutIds.push_back(S->id());
      if (Reverse && Term->opcode() == Opcode::Ret) {
        OutIds.push_back(N);
        Returns.push_back(B->id());
      }
    }
    for (const BasicBlock *P : B->preds())
      InIds.push_back(P->id());
    OutBegin.push_back(static_cast<unsigned>(OutIds.size()));
    InBegin.push_back(static_cast<unsigned>(InIds.size()));
  }
  if (Reverse) {
    // The virtual exit: the return blocks flow into it, nothing out of it.
    InIds.insert(InIds.end(), Returns.begin(), Returns.end());
    OutBegin.push_back(static_cast<unsigned>(OutIds.size()));
    InBegin.push_back(static_cast<unsigned>(InIds.size()));
  }
  return G;
}

bool fcc::computeDominators(const IndexGraph &G, IndexDominators &Out) {
  const unsigned N = G.size();

  // One iterative DFS (generator CFGs can be deep): preorder numbers and
  // DFS-tree parents feed the semidominators, the postorder goes to the
  // caller, and a visit count below N is how unreachable nodes show.
  std::vector<unsigned> ByDfs{G.root()}; // Nodes in DFS preorder.
  std::vector<unsigned> DfsNum(N, NoNode);
  std::vector<unsigned> ParentPre(N, 0); // Preorder -> parent's preorder.
  DfsNum[G.root()] = 0;
  Out.Postorder.clear();
  // Stack of (node, next successor index to visit).
  std::vector<std::pair<unsigned, unsigned>> Stack{{G.root(), 0}};
  while (!Stack.empty()) {
    auto &[V, NextSucc] = Stack.back();
    if (NextSucc == G.succs(V).size()) {
      Out.Postorder.push_back(V);
      Stack.pop_back();
      continue;
    }
    unsigned S = G.succs(V)[NextSucc++];
    if (DfsNum[S] == NoNode) {
      DfsNum[S] = static_cast<unsigned>(ByDfs.size());
      ParentPre[DfsNum[S]] = DfsNum[V];
      ByDfs.push_back(S);
      Stack.push_back({S, 0});
    }
  }
  if (ByDfs.size() != N)
    return false;

  // Semidominators, walking vertices in decreasing preorder. For each
  // predecessor v of w the candidate is v itself when v was not yet
  // processed (preorder below w: a tree or forward edge, sdom[v] still the
  // identity) and otherwise the minimum semidominator on the processed DFS
  // path above v, which is exactly what eval() answers; linking w under its
  // DFS parent afterwards extends those paths. Keys and labels are final
  // when linked, the precondition the forest documents.
  std::vector<unsigned> Sdom(N);
  std::iota(Sdom.begin(), Sdom.end(), 0u);
  LinkEvalForest Forest(N, Sdom.data());
  for (unsigned W = N; W-- > 1;) {
    for (unsigned P : G.preds(ByDfs[W]))
      Sdom[W] = std::min(Sdom[W], Sdom[Forest.eval(DfsNum[P])]);
    Forest.link(W, ParentPre[W]);
  }

  // SemiNCA: idom(w) is the nearest common ancestor of w's DFS parent and
  // sdom(w) in the dominator tree. Walking vertices in increasing preorder
  // makes every idom met on the climb final, and the climb compares plain
  // preorder numbers because an ancestor always has the smaller one.
  Out.Idom.assign(N, NoNode);
  std::vector<unsigned> IdomPre(N, 0);
  for (unsigned W = 1; W != N; ++W) {
    unsigned U = ParentPre[W];
    while (U > Sdom[W])
      U = IdomPre[U];
    IdomPre[W] = U;
    Out.Idom[ByDfs[W]] = ByDfs[U];
  }
  return true;
}
