//===- fuzz/ReferenceCoalescer.h - Full-rescan set building -----*- C++ -*-===//
///
/// \file
/// The differential oracle's reference for FastCoalescer's member sets.
/// It keeps each set as a sorted array, merges two sets into a fresh array,
/// and decides every eager union by rescanning both sets' full member lists
/// with the Figure 1 stack scan. That costs O(|A| + |B|) per union, which is
/// why the shipped coalescer replaced it with per-set treaps and an
/// incremental cross-pair check. The two must reach identical partitions,
/// in eager and in lazy mode; compareWithReference() checks that.
///
//===----------------------------------------------------------------------===//

#ifndef FCC_FUZZ_REFERENCECOALESCER_H
#define FCC_FUZZ_REFERENCECOALESCER_H

#include "coalesce/FastCoalescer.h"

#include <string>
#include <vector>

namespace fcc {

/// FastCoalescer with the sorted-array member sets and full rescan.
class ReferenceCoalescer : public FastCoalescer {
public:
  using FastCoalescer::FastCoalescer;

protected:
  void resetMembers() override;
  bool setsWouldInterfere(unsigned Keep, unsigned Lose) override;
  void mergeMembers(unsigned Keep, unsigned Lose) override;
  void collectMembers(unsigned Root, std::vector<unsigned> &Out) override;

private:
  /// Sorted member ids, by set root; empty stands for the singleton {root}.
  std::vector<std::vector<unsigned>> Members;
};

/// Computes the partition of \p F with FastCoalescer and with
/// ReferenceCoalescer under \p Opts and compares rep() for every variable.
/// Leaves \p F unchanged. Returns false with \p Detail naming the first
/// variable whose location differs.
bool compareWithReference(Function &F, const DominatorTree &DT,
                          const Liveness &LV, const FastCoalescerOptions &Opts,
                          std::string &Detail);

} // namespace fcc

#endif // FCC_FUZZ_REFERENCECOALESCER_H
