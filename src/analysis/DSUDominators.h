//===- analysis/DSUDominators.h - The dominator engine ----------*- C++ -*-===//
///
/// \file
/// The one dominator engine, for dominators and postdominators alike: it
/// reads a flow graph through IndexGraph, so the same code serves the CFG
/// (DominatorTree) and the reverse CFG rooted at a virtual exit
/// (PostDominatorTree). Semidominators come from Tarjan's link-eval forest
/// (support/UnionFind.h), immediate dominators from the SemiNCA walk: for
/// each vertex in DFS preorder, climb the already-final idom chain from its
/// DFS parent to a vertex at or above its semidominator. This is the
/// DSU-based family of "Finding Dominators via Disjoint Set Union" (see
/// PAPERS.md), which applies to any flow graph, reversed ones included, and
/// is near-linear where the iterative fixed point (kept only as the test
/// reference, fuzz/ReferenceDominators.h) is O(n^2) on deep CFGs.
///
//===----------------------------------------------------------------------===//

#ifndef FCC_ANALYSIS_DSUDOMINATORS_H
#define FCC_ANALYSIS_DSUDOMINATORS_H

#include <span>
#include <vector>

namespace fcc {

class Function;

/// "No node": the idom of the root.
constexpr unsigned NoNode = ~0u;

/// A rooted flow graph over node ids 0..size()-1 with successor and
/// predecessor lists. Block nodes keep their block ids in both directions.
class IndexGraph {
public:
  /// The CFG, rooted at the entry block.
  static IndexGraph forward(const Function &F) { return build(F, false); }
  /// The reverse CFG plus a virtual exit, node numBlocks(), that every
  /// `ret` block flows into; the exit is the root.
  static IndexGraph reverse(const Function &F) { return build(F, true); }

  unsigned size() const { return static_cast<unsigned>(SuccBegin.size()) - 1; }
  unsigned root() const { return Root; }
  std::span<const unsigned> succs(unsigned N) const {
    return {SuccIds.data() + SuccBegin[N], SuccIds.data() + SuccBegin[N + 1]};
  }
  std::span<const unsigned> preds(unsigned N) const {
    return {PredIds.data() + PredBegin[N], PredIds.data() + PredBegin[N + 1]};
  }

private:
  static IndexGraph build(const Function &F, bool Reverse);

  unsigned Root = 0;
  // Node n's lists are Ids[Begin[n], Begin[n + 1]).
  std::vector<unsigned> SuccBegin, SuccIds, PredBegin, PredIds;
};

/// The engine's result: immediate dominators (NoNode for the root) and the
/// nodes its DFS from the root reached (successors taken in list order), in
/// postorder.
struct IndexDominators {
  std::vector<unsigned> Idom;
  std::vector<unsigned> Postorder;
};

/// Computes the dominators of \p G. Returns false when some node is not
/// reachable from the root; then only \p Out.Postorder is filled.
bool computeDominators(const IndexGraph &G, IndexDominators &Out);

} // namespace fcc

#endif // FCC_ANALYSIS_DSUDOMINATORS_H
