//===- analysis/DominatorTree.cpp -----------------------------------------===//
//
// Front ends of the dominator engine (DSUDominators.cpp): the CFG for
// DominatorTree, followed by the depth-first numbering pass due to Tarjan
// that the paper's dominance-forest construction depends on (Section 3.2),
// and the reverse CFG for PostDominatorTree.
//
//===----------------------------------------------------------------------===//

#include "analysis/DominatorTree.h"

#include "analysis/DSUDominators.h"
#include "ir/BasicBlock.h"
#include "ir/Function.h"

#include <stdexcept>
#include <string>

using namespace fcc;

unsigned DominatorTree::blockIndex(const BasicBlock *B) const {
  assert(B && B->getParent() == &F && "block from a different function");
  return B->id();
}

DominatorTree::DominatorTree(const Function &F, DominatorsTag) : F(F) {
  unsigned N = F.numBlocks();
  assert(N != 0 && "empty function");

  // Unreachable blocks break every invariant below (the RPO no longer
  // covers the function, the tree does not span it). The verifier rejects
  // them, but dominators are also built directly on unverified functions —
  // so enforce the precondition here, in release builds too, instead of
  // relying on an assert that compiles out.
  IndexDominators D;
  if (!computeDominators(IndexGraph::forward(F), D))
    throw std::invalid_argument(
        "dominators(@" + F.name() + "): " +
        std::to_string(N - D.Postorder.size()) +
        " block(s) unreachable from entry; the function does not verify");

  RPO.reserve(N);
  for (auto It = D.Postorder.rbegin(); It != D.Postorder.rend(); ++It)
    RPO.push_back(F.block(*It));
  Idom.assign(N, nullptr);
  for (unsigned B = 0; B != N; ++B)
    if (D.Idom[B] != NoNode)
      Idom[B] = F.block(D.Idom[B]);

  // Dominator-tree children, in RPO so numbering is deterministic.
  Children.assign(N, {});
  for (BasicBlock *B : RPO)
    if (BasicBlock *D = Idom[B->id()])
      Children[D->id()].push_back(B);

  // Tarjan numbering: preorder on the way down, max preorder of the subtree
  // on the way up.
  Preorder.assign(N, 0);
  MaxPreorder.assign(N, 0);
  PreorderBlocks.assign(N, nullptr);
  unsigned NextPre = 0;
  std::vector<std::pair<BasicBlock *, unsigned>> Stack;
  Stack.push_back({F.entry(), 0});
  Preorder[F.entry()->id()] = NextPre;
  PreorderBlocks[NextPre] = F.entry();
  ++NextPre;
  while (!Stack.empty()) {
    auto &[B, NextChild] = Stack.back();
    const auto &Kids = Children[B->id()];
    if (NextChild < Kids.size()) {
      BasicBlock *C = Kids[NextChild++];
      Preorder[C->id()] = NextPre;
      PreorderBlocks[NextPre] = C;
      ++NextPre;
      Stack.push_back({C, 0});
      continue;
    }
    MaxPreorder[B->id()] = NextPre - 1;
    Stack.pop_back();
  }
  assert(NextPre == N && "dominator tree does not span all blocks");
}

size_t DominatorTree::bytes() const {
  size_t Total = RPO.capacity() * sizeof(BasicBlock *) +
                 Idom.capacity() * sizeof(BasicBlock *) +
                 Preorder.capacity() * sizeof(unsigned) +
                 MaxPreorder.capacity() * sizeof(unsigned) +
                 PreorderBlocks.capacity() * sizeof(BasicBlock *);
  for (const auto &Kids : Children)
    Total += Kids.capacity() * sizeof(BasicBlock *);
  return Total;
}

PostDominatorTree::PostDominatorTree(const Function &F) : F(F) {
  const unsigned N = F.numBlocks();
  IndexDominators D;
  Complete = computeDominators(IndexGraph::reverse(F), D);
  if (!Complete)
    return;
  // The virtual exit, node N, maps to nullptr.
  IPdom.assign(N, nullptr);
  for (unsigned B = 0; B != N; ++B)
    if (D.Idom[B] != N)
      IPdom[B] = F.block(D.Idom[B]);
}

BasicBlock *PostDominatorTree::ipdom(const BasicBlock *B) const {
  assert(Complete && B->getParent() == &F && "no postdominators for this");
  return IPdom[B->id()];
}

std::vector<std::vector<const BasicBlock *>>
PostDominatorTree::controlDependence() const {
  assert(Complete && "control dependence needs every block to reach a ret");
  std::vector<std::vector<const BasicBlock *>> CD(F.numBlocks());
  for (const auto &X : F.blocks()) {
    const auto &Succs = X->terminator()->successors();
    if (Succs.size() < 2)
      continue;
    const BasicBlock *Stop = ipdom(X.get());
    for (const BasicBlock *Runner : Succs)
      for (; Runner != Stop; Runner = ipdom(Runner))
        CD[Runner->id()].push_back(X.get());
  }
  return CD;
}
