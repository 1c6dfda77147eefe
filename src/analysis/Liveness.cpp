//===- analysis/Liveness.cpp ----------------------------------------------===//
//
// The per-variable liveness walk and its CSR tables, documented in
// Liveness.h.
//
//===----------------------------------------------------------------------===//

#include "analysis/Liveness.h"

#include "ir/BasicBlock.h"
#include "ir/Function.h"
#include "ir/Variable.h"

#include <cassert>
#include <stdexcept>
#include <string>

using namespace fcc;

namespace {

constexpr unsigned kNil = ~0u;

/// One link of the per-variable block lists the sweep builds; all lists
/// share one link array.
struct Link {
  unsigned Block;
  unsigned Next;
};

/// What the sweep records per variable: its first defining block, the
/// heads of its block lists, and two stamps (block id + 1; 0 means none
/// yet) that keep each block at most once per list.
struct VarInfo {
  unsigned FirstDef = kNil; ///< The first block defining it.
  unsigned MoreDefs = kNil; ///< Further defining blocks (non-SSA code).
  unsigned UpUses = kNil;   ///< Blocks with an upward-exposed use.
  unsigned PhiUses = kNil;  ///< Predecessors a phi operand flows out of.
  unsigned DefStamp = 0;    ///< Last block that defined it.
  unsigned UseStamp = 0;    ///< Last block with an upward-exposed use.
};

/// Per-block walk state: the marks of the variable being walked (its id +
/// 1) — reached as live-in, reached as live-out, defines it — and, kept on
/// the same cache line, the block's running list sizes and summaries.
struct BlockMarks {
  unsigned In = 0, Out = 0, Kill = 0;
  unsigned NumIn = 0, NumOut = 0;
  uint64_t InSummary = 0, OutSummary = 0;
};

/// Where one walked variable's blocks end in the walk's output streams.
struct Run {
  unsigned Var;
  unsigned InEnd, OutEnd;
};

/// Sizes \p T from the walk's per-block counts and summaries, with
/// T.Offsets[b] at the end of block b's list for the back-to-front fill.
template <unsigned BlockMarks::*Count, uint64_t BlockMarks::*Summary>
void layOut(const std::vector<BlockMarks> &Marks, std::vector<unsigned> &Offsets,
            std::vector<unsigned> &Ids, std::vector<uint64_t> &Summaries) {
  Offsets.resize(Marks.size() + 1);
  Summaries.resize(Marks.size());
  unsigned Sum = 0;
  for (size_t B = 0; B != Marks.size(); ++B) {
    Sum += Marks[B].*Count;
    Offsets[B] = Sum;
    Summaries[B] = Marks[B].*Summary;
  }
  Offsets.back() = Sum;
  Ids.resize(Sum);
}

[[noreturn, gnu::cold]] void violation(const Function &F, const Variable *V,
                                       const char *What) {
  throw std::invalid_argument("sparse liveness(@" + F.name() + "): %" +
                              V->name() + " " + What +
                              "; sparse liveness requires strict "
                              "single-definition (SSA) input");
}

} // namespace

Liveness::Liveness(const Function &F, LivenessAlgorithm Algo) {
  const unsigned NumBlocks = F.numBlocks();
  const unsigned NumVars = F.numVariables();
  const bool CheckSSA = Algo == LivenessAlgorithm::Sparse;

  // The sweep: one pass over every block files each variable's defining
  // blocks, upward-exposed uses and phi-operand predecessors, and copies
  // the predecessor lists into one id array for the walk. Under the SSA
  // check a parameter counts as defined above the entry block, so a
  // redefinition is a second definition; without it a parameter is just a
  // variable no instruction defines, live-in at entry wherever it is used.
  std::vector<VarInfo> Vars(NumVars);
  std::vector<Link> Links;
  Links.reserve(size_t(NumVars) + 2 * size_t(NumBlocks));
  auto Push = [&](unsigned &Head, unsigned Block) {
    Links.push_back({Block, Head});
    Head = static_cast<unsigned>(Links.size() - 1);
  };
  if (CheckSSA)
    for (const Variable *P : F.params())
      Vars[P->id()].DefStamp = kNil;
  std::vector<unsigned> PredBegin(size_t(NumBlocks) + 1, 0), PredIds;
  PredIds.reserve(2 * size_t(NumBlocks));

  for (const auto &B : F.blocks()) {
    const unsigned Id = B->id(), Stamp = Id + 1;
    auto NoteDef = [&](const Variable *V) {
      VarInfo &VI = Vars[V->id()];
      if (CheckSSA) {
        if (VI.DefStamp != 0)
          violation(F, V, "has more than one definition");
        if (VI.UseStamp == Stamp)
          violation(F, V, "is used above its definition");
      }
      if (VI.DefStamp == Stamp)
        return;
      VI.DefStamp = Stamp;
      if (VI.FirstDef == kNil)
        VI.FirstDef = Id;
      else
        Push(VI.MoreDefs, Id);
    };
    for (const auto &Phi : B->phis())
      NoteDef(Phi->getDef());
    for (const auto &I : B->insts()) {
      I->forEachUsedVar([&](const Variable *V) {
        VarInfo &VI = Vars[V->id()];
        if (VI.DefStamp != Stamp && VI.UseStamp != Stamp) {
          Push(VI.UpUses, Id);
          VI.UseStamp = Stamp;
        }
      });
      if (const Variable *Def = I->getDef())
        NoteDef(Def);
    }
    for (const BasicBlock *P : B->preds())
      PredIds.push_back(P->id());
    PredBegin[Id + 1] = static_cast<unsigned>(PredIds.size());
    // Phi operands are uses on the incoming edge: live out of the matching
    // predecessor, never live-in here (the Section 3.1 convention).
    const unsigned *Preds = PredIds.data() + PredBegin[Id];
    for (const auto &Phi : B->phis())
      for (unsigned Idx = 0, E = Phi->getNumOperands(); Idx != E; ++Idx) {
        const Operand &O = Phi->getOperand(Idx);
        if (O.isVar())
          Push(Vars[O.getVar()->id()].PhiUses, Preds[Idx]);
      }
  }

  // The walk, one variable at a time in id order. It writes each
  // variable's live-in and live-out blocks to two streams through raw
  // cursors (before each variable the streams get room for one entry per
  // block, the most one walk adds) and counts them per block in the marks
  // for the fill below. The live-in blocks, in the order they were
  // reached, double as the variable's work list.
  std::vector<BlockMarks> Marks(NumBlocks);
  std::vector<unsigned> InBlocks(4 * size_t(NumBlocks)),
      OutBlocks(4 * size_t(NumBlocks));
  unsigned NumInPairs = 0, NumOutPairs = 0;
  std::vector<Run> Runs;
  Runs.reserve(NumVars);
  for (unsigned V = 0; V != NumVars; ++V) {
    const VarInfo &VI = Vars[V];
    if (VI.UpUses == kNil && VI.PhiUses == kNil)
      continue; // Never used across an edge: live nowhere at a boundary.
    if (CheckSSA && VI.DefStamp == 0)
      violation(F, F.variable(V), "is used but never defined");
    const unsigned Mark = V + 1;
    const uint64_t Bit = uint64_t(1) << (V % 64);
    if (VI.FirstDef != kNil)
      Marks[VI.FirstDef].Kill = Mark;
    for (unsigned L = VI.MoreDefs; L != kNil; L = Links[L].Next)
      Marks[Links[L].Block].Kill = Mark;
    if (InBlocks.size() < size_t(NumInPairs) + NumBlocks)
      InBlocks.resize(2 * InBlocks.size() + NumBlocks);
    if (OutBlocks.size() < size_t(NumOutPairs) + NumBlocks)
      OutBlocks.resize(2 * OutBlocks.size() + NumBlocks);
    unsigned *InEnd = InBlocks.data() + NumInPairs;
    unsigned *OutEnd = OutBlocks.data() + NumOutPairs;
    unsigned *Next = InEnd;

    // Each (variable, block) pair is marked once, so every live-in block
    // has its predecessors visited once.
    auto LiveIn = [&](unsigned B) {
      BlockMarks &M = Marks[B];
      if (M.In == Mark)
        return;
      M.In = Mark;
      ++M.NumIn;
      M.InSummary |= Bit;
      *InEnd++ = B;
    };
    auto LiveOut = [&](unsigned P) {
      BlockMarks &M = Marks[P];
      if (M.Out == Mark)
        return;
      M.Out = Mark;
      ++M.NumOut;
      M.OutSummary |= Bit;
      *OutEnd++ = P;
      if (M.Kill != Mark)
        LiveIn(P); // Not defined in P: live-in there too.
    };
    for (unsigned L = VI.PhiUses; L != kNil; L = Links[L].Next)
      LiveOut(Links[L].Block);
    for (unsigned L = VI.UpUses; L != kNil; L = Links[L].Next)
      LiveIn(Links[L].Block);
    while (Next != InEnd) {
      unsigned B = *Next++;
      for (unsigned K = PredBegin[B], E = PredBegin[B + 1]; K != E; ++K)
        LiveOut(PredIds[K]);
    }
    NumInPairs = static_cast<unsigned>(InEnd - InBlocks.data());
    NumOutPairs = static_cast<unsigned>(OutEnd - OutBlocks.data());
    Runs.push_back({V, NumInPairs, NumOutPairs});
  }

  // The fill: scattering the variables back to front from each block's
  // end leaves every list sorted and Offsets[b] at the block's start.
  layOut<&BlockMarks::NumIn, &BlockMarks::InSummary>(Marks, In.Offsets, In.Ids,
                                                     In.Summary);
  layOut<&BlockMarks::NumOut, &BlockMarks::OutSummary>(Marks, Out.Offsets,
                                                       Out.Ids, Out.Summary);
  for (size_t R = Runs.size(); R-- != 0;) {
    const unsigned V = Runs[R].Var;
    for (unsigned I = R ? Runs[R - 1].InEnd : 0; I != Runs[R].InEnd; ++I)
      In.Ids[--In.Offsets[InBlocks[I]]] = V;
    for (unsigned I = R ? Runs[R - 1].OutEnd : 0; I != Runs[R].OutEnd; ++I)
      Out.Ids[--Out.Offsets[OutBlocks[I]]] = V;
  }
}

std::span<const unsigned> Liveness::liveIn(const BasicBlock *B) const {
  assert(B->id() < In.Summary.size() && "foreign block");
  return In.of(B->id());
}

std::span<const unsigned> Liveness::liveOut(const BasicBlock *B) const {
  assert(B->id() < Out.Summary.size() && "foreign block");
  return Out.of(B->id());
}
