//===- fuzz/ReferenceLiveness.h - Dense fixed-point liveness ----*- C++ -*-===//
///
/// \file
/// The differential oracle's reference for analysis/Liveness: backward
/// iterative data flow to a fixed point over one dense bitset per block
/// for live-in and for live-out, with the same Section 3.1 phi convention.
/// It handles any input, SSA or not, and costs O(iterations * blocks *
/// variables / 64) time and O(blocks * variables) memory, which is why the
/// shipped analysis walks each variable's uses instead and stores only the
/// live ranges. The two must agree on every set; compareLiveness() checks
/// that.
///
//===----------------------------------------------------------------------===//

#ifndef FCC_FUZZ_REFERENCELIVENESS_H
#define FCC_FUZZ_REFERENCELIVENESS_H

#include "support/IndexSet.h"

#include <string>
#include <vector>

namespace fcc {

class BasicBlock;
class Function;
class Liveness;

/// Block-boundary live sets solved with the dense fixed point.
class ReferenceLiveness {
public:
  explicit ReferenceLiveness(const Function &F);

  const IndexSet &liveIn(const BasicBlock *B) const;
  const IndexSet &liveOut(const BasicBlock *B) const;

private:
  std::vector<IndexSet> In, Out;
};

/// Compares every live-in and live-out set of \p LV with the reference
/// solved over \p F. Returns false with \p Detail naming the first block
/// and variable on which they differ.
bool compareLiveness(const Function &F, const Liveness &LV,
                     std::string &Detail);

} // namespace fcc

#endif // FCC_FUZZ_REFERENCELIVENESS_H
