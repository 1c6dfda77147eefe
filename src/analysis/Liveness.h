//===- analysis/Liveness.h - Phi-aware liveness ------------------*- C++ -*-===//
///
/// \file
/// Block-boundary liveness with the phi convention Section 3.1 of the paper
/// depends on: a value feeding a phi in block b is *not* in b's live-in set
/// — it is live out of the predecessor it flows from. Only values with a
/// direct (non-phi) use in b or below appear in live-in(b). Phi results are
/// defined at the top of their block.
///
/// One solver serves SSA and non-SSA code alike. A single sweep over the
/// function files, per variable, the blocks that define it, the blocks
/// where a use is upward-exposed (no definition above it in the block) and
/// the predecessors its phi operands flow out of. Then each variable, in id
/// order, is walked upwards from those uses:
///
///   - an upward-exposed use in b makes v live-in at b;
///   - v live-in at b makes it live-out of every predecessor of b;
///   - a phi operand makes v live-out of its predecessor, and only that;
///   - v live-out of p makes it live-in at p unless p defines v (a block
///     kills v exactly when it defines it).
///
/// Per-block stamps mark what the current variable has reached, so every
/// (variable, block) pair is expanded at most once: the work is O(program
/// size + sum of live-range sizes), not the O(iterations * blocks *
/// variables / 64) of a dense bit-vector fixed point.
///
/// Storage: live-in and live-out are two compressed tables (CSR), each an
/// offsets array with one entry per block plus one array of the live
/// variable ids of all blocks. Because variables are walked in id order,
/// every block's list comes out sorted without a sort. Memory is
/// O(blocks + sum of live-range sizes); bytes() reports exactly that.
/// Whole-set clients iterate a block's list as a span of ids. Point
/// queries, the coalescer's hot path, are nearly all negative, so each
/// block also keeps a 64-bit summary with bit (id mod 64) set for every
/// member: a clear bit answers "no" with one load, and only the rest
/// bisect the block's short sorted list.
///
//===----------------------------------------------------------------------===//

#ifndef FCC_ANALYSIS_LIVENESS_H
#define FCC_ANALYSIS_LIVENESS_H

#include "ir/BasicBlock.h"
#include "ir/Variable.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace fcc {

class Function;

/// Accepted and ignored by the constructor; see PipelineOptions::Analyses.
struct LivenessTag {};

/// Block-boundary liveness sets over a function's variables.
class Liveness {
public:
  explicit Liveness(const Function &F, LivenessTag = {});

  /// Ids of the variables live into / out of \p B, in increasing order.
  std::span<const unsigned> liveIn(const BasicBlock *B) const;
  std::span<const unsigned> liveOut(const BasicBlock *B) const;

  bool isLiveIn(const BasicBlock *B, const Variable *V) const {
    return In.contains(B->id(), V->id());
  }
  bool isLiveOut(const BasicBlock *B, const Variable *V) const {
    return Out.contains(B->id(), V->id());
  }

  /// Bytes held by the two tables (for the memory experiments): committed
  /// size, not capacity, so the figure does not depend on how a library
  /// rounds allocations up.
  size_t bytes() const { return In.bytes() + Out.bytes(); }

private:
  /// One CSR table: the ids of block b are Ids[Offsets[b], Offsets[b + 1]),
  /// and Summary[b] has bit (id mod 64) set for each of them.
  struct Table {
    std::vector<unsigned> Offsets;
    std::vector<unsigned> Ids;
    std::vector<uint64_t> Summary;

    std::span<const unsigned> of(unsigned Block) const {
      return {Ids.data() + Offsets[Block], Ids.data() + Offsets[Block + 1]};
    }
    bool contains(unsigned Block, unsigned VarId) const {
      assert(Block < Summary.size() && "foreign block");
      if (!((Summary[Block] >> (VarId % 64)) & 1))
        return false;
      // Branch-free bisection: the halving steps compile to conditional
      // moves, so the search costs no mispredicted branch.
      const unsigned *Base = Ids.data() + Offsets[Block];
      unsigned Len = Offsets[Block + 1] - Offsets[Block];
      while (Len > 1) {
        unsigned Half = Len / 2;
        Base = Base[Half] <= VarId ? Base + Half : Base;
        Len -= Half;
      }
      return *Base == VarId;
    }
    size_t bytes() const {
      return (Offsets.size() + Ids.size()) * sizeof(unsigned) +
             Summary.size() * sizeof(uint64_t);
    }
  };

  Table In, Out;
};

} // namespace fcc

#endif // FCC_ANALYSIS_LIVENESS_H
