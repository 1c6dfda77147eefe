//===- ssa/SSABuilder.h - SSA construction ----------------------*- C++ -*-===//
///
/// \file
/// SSA construction after Cytron et al., in the three flavors the paper
/// discusses (Section 3): minimal, semi-pruned (Briggs), and pruned. The
/// builder optionally performs *copy folding* during renaming — the
/// transformation from Briggs et al. that deletes every `x = copy y` by
/// letting x's uses read y's current SSA name. Folding is what makes naive
/// phi instantiation explode with copies and what the paper's coalescer
/// undoes only where required.
///
//===----------------------------------------------------------------------===//

#ifndef FCC_SSA_SSABUILDER_H
#define FCC_SSA_SSABUILDER_H

#include <cstddef>
#include <string>

namespace fcc {

class DominatorTree;
class Function;

/// Which phi-placement discipline to use.
enum class SSAFlavor {
  Minimal,    ///< Phi at every iterated-dominance-frontier block.
  SemiPruned, ///< Only for names that are upward exposed in some block.
  Pruned,     ///< Only where the name is live into the block.
};

/// SSA construction options.
struct SSABuildOptions {
  SSAFlavor Flavor = SSAFlavor::Pruned;
  /// Fold `x = copy y` during renaming (deletes the copy).
  bool FoldCopies = false;
};

/// Outcome counters for one construction.
struct SSABuildStats {
  unsigned PhisInserted = 0;
  unsigned CopiesFolded = 0;
  unsigned NamesCreated = 0;
  /// Peak bytes of the construction's dominant side structures (frontier,
  /// liveness when pruned, def-site tables, rename stacks).
  size_t PeakBytes = 0;
};

/// Converts strict, phi-free \p F into SSA form. \p DT must be up to date.
/// Every definition is given a fresh versioned name; the paper's "regular
/// program" invariants (each def dominates its uses) hold on return.
SSABuildStats buildSSA(Function &F, const DominatorTree &DT,
                       const SSABuildOptions &Opts = {});

/// The SSA checker: at most one definition per variable (parameters count
/// as defined at entry), and definitions dominating every use (phi uses
/// checked at the tail of the incoming edge's predecessor). Returns true
/// when the function is in valid SSA form; otherwise \p Error names the
/// variable and the violation (more than one definition, used above its
/// definition, used but never defined, not dominated by its definition).
bool verifySSAForm(const Function &F, const DominatorTree &DT,
                   std::string &Error);

} // namespace fcc

#endif // FCC_SSA_SSABUILDER_H
