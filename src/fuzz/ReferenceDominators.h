//===- fuzz/ReferenceDominators.h - Iterative dominators --------*- C++ -*-===//
///
/// \file
/// The reference for the dominator engine (analysis/DSUDominators.h): the
/// Cooper–Harvey–Kennedy iterative fixed point, over the same IndexGraph
/// view in both directions. Simple enough to trust, and O(n^2) on deep
/// CFGs, which is why the shipped trees use the DSU engine instead.
///
//===----------------------------------------------------------------------===//

#ifndef FCC_FUZZ_REFERENCEDOMINATORS_H
#define FCC_FUZZ_REFERENCEDOMINATORS_H

#include <string>
#include <vector>

namespace fcc {

class Function;
class IndexGraph;

/// Immediate dominators of \p G by the iterative fixed point: Idom[node],
/// NoNode for the root. Returns false when some node is not reachable
/// from the root.
bool referenceIdoms(const IndexGraph &G, std::vector<unsigned> &Idom);

/// Compares DominatorTree(F) with the reference: every idom, and the
/// preorder/max-preorder intervals nested along every tree edge. Returns
/// false with \p Detail naming the first disagreement.
bool compareDominators(const Function &F, std::string &Detail);

/// Compares PostDominatorTree(F) with the reference over the reverse CFG.
/// When a walk of F's own predecessor lists (apart from the view) finds a
/// block that reaches no `ret`, the tree must only report itself
/// incomplete.
bool comparePostDominators(const Function &F, std::string &Detail);

} // namespace fcc

#endif // FCC_FUZZ_REFERENCEDOMINATORS_H
