//===- analysis/DominatorTree.h - Dominance information ---------*- C++ -*-===//
///
/// \file
/// Dominator tree decorated with the Tarjan preorder / max-preorder
/// numbering the paper's Figure 1 requires: `preorder(a) <= preorder(b) <=
/// maxPreorder(a)` answers "does a dominate b?" in constant time, and the
/// numbering is computed once per function regardless of how many dominance
/// forests are built over it. PostDominatorTree is the same engine
/// (analysis/DSUDominators.h) run over the reverse CFG.
///
//===----------------------------------------------------------------------===//

#ifndef FCC_ANALYSIS_DOMINATORTREE_H
#define FCC_ANALYSIS_DOMINATORTREE_H

#include <cassert>
#include <cstddef>
#include <vector>

namespace fcc {

class BasicBlock;
class Function;

/// Accepted and ignored by the constructor; see PipelineOptions::Analyses.
struct DominatorsTag {};

/// Immediate-dominator tree over a function's CFG. The function must verify;
/// in particular every block must be reachable, and that precondition is
/// checked: construction throws std::invalid_argument on a CFG with
/// unreachable blocks (a corrupt RPO would silently poison every downstream
/// pass, so this holds in release builds too).
class DominatorTree {
public:
  explicit DominatorTree(const Function &F, DominatorsTag = {});

  const Function &function() const { return F; }

  /// Immediate dominator; nullptr for the entry block.
  BasicBlock *idom(const BasicBlock *B) const {
    return Idom[blockIndex(B)];
  }

  /// Dominator-tree children of \p B.
  const std::vector<BasicBlock *> &children(const BasicBlock *B) const {
    return Children[blockIndex(B)];
  }

  /// True when \p A dominates \p B (reflexively).
  bool dominates(const BasicBlock *A, const BasicBlock *B) const {
    unsigned PA = Preorder[blockIndex(A)];
    return PA <= Preorder[blockIndex(B)] &&
           Preorder[blockIndex(B)] <= MaxPreorder[blockIndex(A)];
  }

  /// True when \p A dominates \p B and A != B.
  bool strictlyDominates(const BasicBlock *A, const BasicBlock *B) const {
    return A != B && dominates(A, B);
  }

  /// Tarjan preorder number of \p B in the dominator tree.
  unsigned preorder(const BasicBlock *B) const {
    return Preorder[blockIndex(B)];
  }

  /// Largest preorder number among \p B's dominator-tree descendants.
  unsigned maxPreorder(const BasicBlock *B) const {
    return MaxPreorder[blockIndex(B)];
  }

  /// Blocks in dominator-tree preorder (index = preorder number).
  const std::vector<BasicBlock *> &preorderBlocks() const {
    return PreorderBlocks;
  }

  /// Blocks in reverse postorder of the CFG (computed as a by-product).
  const std::vector<BasicBlock *> &reversePostorder() const { return RPO; }

  /// Bytes held by the tree's tables (for the memory experiments).
  size_t bytes() const;

private:
  unsigned blockIndex(const BasicBlock *B) const;

  const Function &F;
  std::vector<BasicBlock *> RPO;
  std::vector<BasicBlock *> Idom;     // indexed by block id
  std::vector<std::vector<BasicBlock *>> Children; // indexed by block id
  std::vector<unsigned> Preorder;     // indexed by block id
  std::vector<unsigned> MaxPreorder;  // indexed by block id
  std::vector<BasicBlock *> PreorderBlocks;
};

/// Postdominators: the dominators of the reverse CFG, rooted at a virtual
/// exit that every `ret` block flows into.
class PostDominatorTree {
public:
  explicit PostDominatorTree(const Function &F);

  /// True when every block reaches a `ret`. The queries below are valid
  /// only then.
  bool complete() const { return Complete; }

  /// Immediate postdominator; nullptr when it is the virtual exit.
  BasicBlock *ipdom(const BasicBlock *B) const;

  /// Control dependence, indexed by block id: the branch blocks each block
  /// is control dependent on, i.e. its reverse dominance frontier. For
  /// every block X with two or more successors, each block on the
  /// postdominator chain from a successor up to (not including) ipdom(X)
  /// depends on X.
  std::vector<std::vector<const BasicBlock *>> controlDependence() const;

private:
  const Function &F;
  bool Complete = false;
  std::vector<BasicBlock *> IPdom; // indexed by block id
};

} // namespace fcc

#endif // FCC_ANALYSIS_DOMINATORTREE_H
