//===- analysis/SparseLiveness.h - SSA-checked liveness ---------*- C++ -*-===//
///
/// \file
/// Liveness over input that must be strict SSA. It runs the one
/// per-variable solver of analysis/Liveness.h and fills the same two CSR
/// tables (per-block sorted lists of live variable ids), so its sets and
/// bytes() are identical to Liveness(F) on the same function. What it adds
/// are checked preconditions: a second definition of any variable, a use
/// above the definition inside the defining block, or a use of a
/// never-defined variable throws std::invalid_argument. Code that assumes
/// SSA uses it so that a violation is an error instead of a silent
/// difference.
///
//===----------------------------------------------------------------------===//

#ifndef FCC_ANALYSIS_SPARSELIVENESS_H
#define FCC_ANALYSIS_SPARSELIVENESS_H

#include "analysis/Liveness.h"

namespace fcc {

/// Liveness(F, LivenessAlgorithm::Sparse) under its own name.
class SparseLiveness : public Liveness {
public:
  explicit SparseLiveness(const Function &F)
      : Liveness(F, LivenessAlgorithm::Sparse) {}
};

} // namespace fcc

#endif // FCC_ANALYSIS_SPARSELIVENESS_H
