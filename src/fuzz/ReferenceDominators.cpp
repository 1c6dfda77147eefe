//===- fuzz/ReferenceDominators.cpp ---------------------------------------===//

#include "fuzz/ReferenceDominators.h"

#include "analysis/DSUDominators.h"
#include "analysis/DominatorTree.h"
#include "ir/BasicBlock.h"
#include "ir/Function.h"

#include <utility>

using namespace fcc;

bool fcc::referenceIdoms(const IndexGraph &G, std::vector<unsigned> &Idom) {
  const unsigned N = G.size(), Root = G.root();
  // Postorder numbers from an iterative DFS; the fixed point visits nodes
  // in reverse postorder.
  std::vector<unsigned> Postorder, PostNum(N, NoNode);
  std::vector<std::pair<unsigned, unsigned>> Stack{{Root, 0}};
  PostNum[Root] = N; // Seen; numbered when finished.
  while (!Stack.empty()) {
    auto &[V, Next] = Stack.back();
    if (Next < G.succs(V).size()) {
      unsigned S = G.succs(V)[Next++];
      if (PostNum[S] == NoNode) {
        PostNum[S] = N;
        Stack.push_back({S, 0});
      }
      continue;
    }
    PostNum[V] = static_cast<unsigned>(Postorder.size());
    Postorder.push_back(V);
    Stack.pop_back();
  }
  if (Postorder.size() != N)
    return false;

  Idom.assign(N, NoNode);
  Idom[Root] = Root; // Self-idom sentinel during iteration.
  auto Intersect = [&](unsigned A, unsigned B) {
    while (A != B) {
      while (PostNum[A] < PostNum[B])
        A = Idom[A];
      while (PostNum[B] < PostNum[A])
        B = Idom[B];
    }
    return A;
  };
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (auto It = Postorder.rbegin(); It != Postorder.rend(); ++It) {
      if (*It == Root)
        continue;
      unsigned New = NoNode;
      for (unsigned P : G.preds(*It))
        if (Idom[P] != NoNode) // Processed already.
          New = New == NoNode ? P : Intersect(New, P);
      if (Idom[*It] != New) {
        Idom[*It] = New;
        Changed = true;
      }
    }
  }
  Idom[Root] = NoNode;
  return true;
}

namespace {

std::string idomMismatch(const Function &F, const BasicBlock &B, unsigned Got,
                         unsigned Want) {
  auto Name = [&](unsigned Node) -> std::string {
    return Node == NoNode ? "<none>"
           : Node < F.numBlocks() ? F.block(Node)->name()
                                  : "<exit>";
  };
  return "idom(" + B.name() + "): DSU " + Name(Got) + " != reference " +
         Name(Want);
}

/// True when every block reaches a ret, walking predecessor lists back
/// from the return blocks (apart from the reverse view on purpose).
bool allBlocksReachReturn(const Function &F) {
  std::vector<unsigned char> Seen(F.numBlocks(), 0);
  std::vector<const BasicBlock *> Stack;
  for (const auto &B : F.blocks())
    if (B->terminator()->opcode() == Opcode::Ret)
      Stack.push_back(B.get());
  size_t Reached = 0;
  while (!Stack.empty()) {
    const BasicBlock *B = Stack.back();
    Stack.pop_back();
    if (Seen[B->id()]++)
      continue;
    ++Reached;
    for (const BasicBlock *P : B->preds())
      Stack.push_back(P);
  }
  return Reached == F.numBlocks();
}

} // namespace

bool fcc::compareDominators(const Function &F, std::string &Detail) {
  DominatorTree DT(F);
  std::vector<unsigned> Ref;
  if (!referenceIdoms(IndexGraph::forward(F), Ref)) {
    Detail = "dominators: the reference finds unreachable blocks";
    return false;
  }
  for (const auto &B : F.blocks()) {
    const BasicBlock *D = DT.idom(B.get());
    if ((D ? D->id() : NoNode) != Ref[B->id()]) {
      Detail = idomMismatch(F, *B, D ? D->id() : NoNode, Ref[B->id()]);
      return false;
    }
    // The decoration: B's preorder interval nests inside its idom's.
    if (D && !(DT.preorder(D) < DT.preorder(B.get()) &&
               DT.maxPreorder(B.get()) <= DT.maxPreorder(D))) {
      Detail = "preorder(" + B->name() + ") is not nested in its idom's";
      return false;
    }
  }
  return true;
}

bool fcc::comparePostDominators(const Function &F, std::string &Detail) {
  PostDominatorTree PDT(F);
  std::vector<unsigned> Ref;
  if (!allBlocksReachReturn(F)) {
    if (PDT.complete())
      Detail = "postdominators: complete, but some block reaches no ret";
    return !PDT.complete();
  }
  if (!PDT.complete() || !referenceIdoms(IndexGraph::reverse(F), Ref)) {
    Detail = "postdominators: every block reaches a ret, but the reverse "
             "CFG is not spanned";
    return false;
  }
  for (const auto &B : F.blocks()) {
    const BasicBlock *P = PDT.ipdom(B.get());
    unsigned Got = P ? P->id() : F.numBlocks(); // nullptr: the exit.
    if (Got != Ref[B->id()]) {
      Detail = "post" + idomMismatch(F, *B, Got, Ref[B->id()]);
      return false;
    }
  }
  return true;
}
