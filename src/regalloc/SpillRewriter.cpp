//===- regalloc/SpillRewriter.cpp -----------------------------------------===//
//
// Each round colors the function once, then rewrites that round's victims
// with work sized by the victims, not by the function: one sweep files the
// victims' reference sites, each split attempt walks one variable's live
// range, the loop nest is built once per call and updated in place, and
// every inserted instruction waits for one rebuild per touched block at the
// end of the round. DESIGN.md §12 states the bound of each piece.
//
//===----------------------------------------------------------------------===//

#include "regalloc/SpillRewriter.h"

#include "analysis/DominatorTree.h"
#include "analysis/LoopInfo.h"
#include "ir/BasicBlock.h"
#include "ir/Function.h"
#include "ir/Variable.h"

#include <algorithm>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <unordered_set>
#include <utility>
#include <vector>

using namespace fcc;

namespace {

constexpr unsigned kNone = ~0u;

/// Fresh spill-temporary and edge-block names. A name is fresh when no
/// variable (block) of the function has it, so the rewritten function
/// still round-trips through the textual printer/parser. The taken names
/// are collected on first need and kept current as names are handed out,
/// so a probe is a hash lookup, not a scan of the function.
class FreshNames {
public:
  explicit FreshNames(Function &F) : F(F) {}

  Variable *temp() {
    collect();
    for (;;) {
      std::string Name = "st" + std::to_string(TempCounter++);
      if (VarNames.insert(Name).second)
        return F.makeVariable(Name);
    }
  }

  BasicBlock *block() {
    collect();
    for (;;) {
      std::string Name = "spb" + std::to_string(BlockCounter++);
      if (BlockNames.insert(Name).second)
        return F.makeBlock(Name);
    }
  }

private:
  void collect() {
    if (Collected)
      return;
    Collected = true;
    for (const auto &V : F.variables())
      VarNames.insert(V->name());
    for (const auto &B : F.blocks())
      BlockNames.insert(B->name());
  }

  Function &F;
  bool Collected = false;
  std::unordered_set<std::string> VarNames, BlockNames;
  unsigned TempCounter = 0, BlockCounter = 0;
};

std::unique_ptr<Instruction> makeSpill(Variable *V, unsigned Slot) {
#ifdef FCC_FUZZ_PLANT_SPILL_BUG
  // Planted bug for the fuzzer acceptance test: every victim shares slot 0,
  // so two simultaneously-spilled values clobber each other.
  Slot = 0;
#endif
  return std::make_unique<Instruction>(
      Opcode::Spill, nullptr,
      std::vector<Operand>{Operand::var(V),
                           Operand::imm(static_cast<int64_t>(Slot))});
}

std::unique_ptr<Instruction> makeReload(Variable *Def, unsigned Slot) {
#ifdef FCC_FUZZ_PLANT_SPILL_BUG
  Slot = 0;
#endif
  return std::make_unique<Instruction>(
      Opcode::Reload, Def,
      std::vector<Operand>{Operand::imm(static_cast<int64_t>(Slot))});
}

void markFlag(std::vector<bool> &Flags, unsigned Id) {
  if (Flags.size() <= Id)
    Flags.resize(Id + 1, false);
  Flags[Id] = true;
}

/// One instruction that references a variable: its block and its body
/// position. Positions hold for a whole round, because a round inserts
/// nothing into an existing body before its flush (see PendingCode).
struct Site {
  BasicBlock *B;
  unsigned Pos;
};

/// The reference sites of one round's victims, filed by one sweep over the
/// function: per victim in block order, then body order, one site per
/// instruction however many operands name the victim.
class VictimSites {
public:
  VictimSites(const Function &F, const std::vector<const Variable *> &Victims)
      : SlotOf(F.numVariables(), kNone), Begin(Victims.size() + 1, 0) {
    for (unsigned K = 0; K != Victims.size(); ++K)
      SlotOf[Victims[K]->id()] = K;
    // Two passes over the same sweep: count per victim, then fill.
    std::vector<unsigned> Stamp(Victims.size(), kNone);
    unsigned Serial = 0;
    auto Sweep = [&](auto &&File) {
      for (const auto &B : F.blocks())
        for (unsigned Pos = 0, E = B->size(); Pos != E; ++Pos, ++Serial) {
          const Instruction &I = *B->insts()[Pos];
          auto Note = [&](const Variable *V) {
            unsigned K = SlotOf[V->id()];
            if (K != kNone && Stamp[K] != Serial) {
              Stamp[K] = Serial;
              File(K, B.get(), Pos);
            }
          };
          I.forEachUsedVar(Note);
          if (const Variable *Def = I.getDef())
            Note(Def);
        }
    };
    Sweep([&](unsigned K, BasicBlock *, unsigned) { ++Begin[K + 1]; });
    for (unsigned K = 0; K != Victims.size(); ++K)
      Begin[K + 1] += Begin[K];
    Sites.resize(Begin.back());
    std::vector<unsigned> Fill(Begin.begin(), Begin.end() - 1);
    std::fill(Stamp.begin(), Stamp.end(), kNone);
    Sweep([&](unsigned K, BasicBlock *B, unsigned Pos) {
      Sites[Fill[K]++] = {B, Pos};
    });
  }

  std::span<const Site> of(const Variable *V) const {
    unsigned K = SlotOf[V->id()];
    return {Sites.data() + Begin[K], Sites.data() + Begin[K + 1]};
  }

private:
  std::vector<unsigned> SlotOf; ///< Victim index per variable id.
  std::vector<unsigned> Begin;  ///< Victim K's sites: [Begin[K], Begin[K+1]).
  std::vector<Site> Sites;
};

/// Spill code waiting for the end of the round. Inserting it all with one
/// rebuild per touched block (BasicBlock::insertInsts) reproduces exactly
/// the bodies that inserting each instruction on the spot would leave:
///
///  - before(B, Pos, I) lands right before the instruction at Pos, after
///    whatever was placed there earlier;
///  - after(B, Pos, I) lands right after it, ahead of anything placed
///    before the next instruction;
///  - front(B, I) lands at the very top of the body, ahead of everything
///    placed so far.
class PendingCode {
public:
  void before(BasicBlock *B, unsigned Pos, std::unique_ptr<Instruction> I) {
    add(B, Pos, Place::Before, std::move(I));
  }
  void after(BasicBlock *B, unsigned Pos, std::unique_ptr<Instruction> I) {
    add(B, Pos + 1, Place::After, std::move(I));
  }
  void front(BasicBlock *B, std::unique_ptr<Instruction> I) {
    add(B, 0, Place::Front, std::move(I));
  }

  void flush() {
    // A front insertion goes ahead of the earlier ones: reverse its order.
    auto Key = [](const Insert &X) {
      return std::make_tuple(X.B->id(), X.Pos, X.Where,
                             X.Where == Place::Front ? ~X.Seq : X.Seq);
    };
    std::sort(Inserts.begin(), Inserts.end(),
              [&](const Insert &A, const Insert &B) { return Key(A) < Key(B); });
    for (size_t First = 0, Last; First != Inserts.size(); First = Last) {
      BasicBlock *B = Inserts[First].B;
      std::vector<std::pair<unsigned, std::unique_ptr<Instruction>>> Batch;
      for (Last = First; Last != Inserts.size() && Inserts[Last].B == B; ++Last)
        Batch.emplace_back(Inserts[Last].Pos, std::move(Inserts[Last].I));
      B->insertInsts(std::move(Batch));
    }
    Inserts.clear();
  }

private:
  /// Order among insertions at one position.
  enum class Place : unsigned { Front, After, Before };
  struct Insert {
    BasicBlock *B;
    unsigned Pos;
    Place Where;
    unsigned Seq;
    std::unique_ptr<Instruction> I;
  };

  void add(BasicBlock *B, unsigned Pos, Place Where,
           std::unique_ptr<Instruction> I) {
    Inserts.push_back(
        {B, Pos, Where, static_cast<unsigned>(Inserts.size()), std::move(I)});
  }

  std::vector<Insert> Inserts;
};

/// The function's natural loops (LoopInfo's, in its order), kept current
/// across splits instead of rebuilt: splitting an edge creates and
/// destroys no loop, and the new edge block belongs to exactly the loops
/// that contain both ends of the edge.
class LoopNest {
public:
  explicit LoopNest(const Function &F) {
    DominatorTree DT(F);
    Loops = LoopInfo(DT).loops();
    Containing.resize(F.numBlocks());
    HeaderOf.assign(F.numBlocks(), kNone);
    for (unsigned L = 0; L != Loops.size(); ++L) {
      HeaderOf[Loops[L].Header->id()] = L;
      for (const BasicBlock *B : Loops[L].Blocks)
        Containing[B->id()].push_back(L);
    }
  }

  unsigned size() const { return static_cast<unsigned>(Loops.size()); }
  const Loop &loop(unsigned L) const { return Loops[L]; }

  /// The loop \p B heads, or kNone.
  unsigned headedBy(const BasicBlock *B) const { return HeaderOf[B->id()]; }

  /// The loops containing \p B.
  std::span<const unsigned> containing(const BasicBlock *B) const {
    return Containing[B->id()];
  }

  /// Records that the fresh block \p E now carries the edge From -> To.
  void splitEdge(const BasicBlock *From, BasicBlock *E, const BasicBlock *To) {
    Containing.resize(E->id() + 1);
    HeaderOf.resize(E->id() + 1, kNone);
    const std::vector<unsigned> &AtTo = Containing[To->id()];
    for (unsigned L : Containing[From->id()])
      if (std::find(AtTo.begin(), AtTo.end(), L) != AtTo.end()) {
        // E has the largest block id yet: appending keeps Blocks sorted.
        Loops[L].Blocks.push_back(E);
        Containing[E->id()].push_back(L);
      }
  }

private:
  std::vector<Loop> Loops;
  std::vector<std::vector<unsigned>> Containing; ///< Per block id.
  std::vector<unsigned> HeaderOf;                ///< Per block id.
};

/// Where one variable is live-in, by a backward walk from its reference
/// sites under Liveness's convention on phi-free code: a use with no
/// definition above it in its block makes the variable live-in there; live
/// in at b makes it live-out of every predecessor of b; live-out of p makes
/// it live-in at p unless p defines it. The cost is the variable's live
/// range plus the predecessor edges into it.
class VariableLiveness {
public:
  void compute(const Function &F, const Variable *V,
               std::span<const Site> Sites) {
    if (InMark.size() < F.numBlocks()) {
      InMark.resize(F.numBlocks(), 0);
      KillMark.resize(F.numBlocks(), 0);
    }
    ++Gen;
    LiveIn.clear();
    for (size_t K = 0; K != Sites.size();) {
      // Sites come in block order: one group per block.
      BasicBlock *B = Sites[K].B;
      bool Defined = false;
      for (; K != Sites.size() && Sites[K].B == B; ++K) {
        const Instruction &I = *B->insts()[Sites[K].Pos];
        if (!Defined && I.uses(V))
          mark(B);
        if (I.getDef() == V)
          Defined = true;
      }
      if (Defined)
        KillMark[B->id()] = Gen;
    }
    for (size_t Next = 0; Next != LiveIn.size(); ++Next)
      for (BasicBlock *P : LiveIn[Next]->preds())
        if (KillMark[P->id()] != Gen)
          mark(P);
  }

  bool isLiveIn(const BasicBlock *B) const {
    return B->id() < InMark.size() && InMark[B->id()] == Gen;
  }

  /// The live-in blocks, in the order the walk reached them.
  std::span<BasicBlock *const> liveInBlocks() const { return LiveIn; }

private:
  void mark(BasicBlock *B) {
    if (InMark[B->id()] == Gen)
      return;
    InMark[B->id()] = Gen;
    LiveIn.push_back(B);
  }

  std::vector<unsigned> InMark, KillMark; ///< Stamped with Gen.
  unsigned Gen = 0;
  std::vector<BasicBlock *> LiveIn;
};

/// The rewriting state of one insertSpillCode call.
class Rewriter {
public:
  Rewriter(Function &F, SpillRewriteResult &R, std::vector<bool> &NoSpill)
      : F(F), R(R), NoSpill(NoSpill), Names(F) {}

  /// Live-range splitting: when the victim crosses a loop without any use
  /// or def inside it, store it on the loop-entry edges and reload it on
  /// the exit edges where it is still live. Returns false when no such
  /// loop exists (caller falls back to spill-everywhere).
  bool trySplitAroundLoop(Variable *V, std::span<const Site> Sites,
                          unsigned Slot);

  /// Spill-everywhere rewrite of one victim: reload into a fresh temporary
  /// before every use, store from a fresh temporary after every def, one
  /// entry store for parameters. After this the victim itself is
  /// referenced only by the parameter store (or not at all). Every fresh
  /// temporary is flagged in NoSpill — its range is already minimal, so
  /// the allocator must never pick it over a long range (see
  /// RegAllocOptions).
  void spillEverywhere(Variable *V, std::span<const Site> Sites, unsigned Slot,
                       bool IsParam);

  /// Inserts the round's spill code.
  void endRound() { Pending.flush(); }

private:
  Function &F;
  SpillRewriteResult &R;
  std::vector<bool> &NoSpill;
  FreshNames Names;
  PendingCode Pending;
  std::unique_ptr<LoopNest> Loops; ///< Built on the first split attempt.
  VariableLiveness Live;
  std::vector<unsigned> LoopMark, BlockMark; ///< Stamped with MarkGen.
  unsigned MarkGen = 0;
};

bool Rewriter::trySplitAroundLoop(Variable *V, std::span<const Site> Sites,
                                  unsigned Slot) {
  if (!Loops) {
    Loops = std::make_unique<LoopNest>(F);
    LoopMark.assign(Loops->size(), 0);
  }
  if (Loops->size() == 0)
    return false;
  Live.compute(F, V, Sites);

  // A qualifying loop has the victim live-in at its header and no
  // reference inside it. Candidates come from the victim's live-in blocks,
  // so the search never looks at the function's other loops.
  ++MarkGen;
  for (const Site &S : Sites)
    for (unsigned L : Loops->containing(S.B))
      LoopMark[L] = MarkGen; // Referenced inside L.
  const Loop *Best = nullptr;
  for (const BasicBlock *H : Live.liveInBlocks()) {
    unsigned L = Loops->headedBy(H);
    if (L == kNone || LoopMark[L] == MarkGen)
      continue;
    if (H == F.entry())
      continue; // No entry edge exists to hold the store.
    // Prefer the largest qualifying region (ties: lowest header id) — it
    // removes the most interference per split.
    const Loop &Cand = Loops->loop(L);
    if (!Best || Cand.Blocks.size() > Best->Blocks.size() ||
        (Cand.Blocks.size() == Best->Blocks.size() &&
         Cand.Header->id() < Best->Header->id()))
      Best = &Cand;
  }
  if (!Best)
    return false;

  if (BlockMark.size() < F.numBlocks())
    BlockMark.resize(F.numBlocks(), 0);
  for (const BasicBlock *B : Best->Blocks)
    BlockMark[B->id()] = MarkGen;
  auto InLoop = [&](const BasicBlock *B) {
    return BlockMark[B->id()] == MarkGen;
  };

  // Exit edges where the victim is still live. Collected before any
  // mutation: splitting inserts blocks, which would invalidate iteration.
  struct ExitEdge {
    BasicBlock *From;
    unsigned SuccIdx;
    BasicBlock *To;
  };
  std::vector<ExitEdge> Exits;
  for (BasicBlock *B : Best->Blocks) {
    Instruction *Term = B->terminator();
    for (unsigned SI = 0, E = Term->getNumSuccessors(); SI != E; ++SI) {
      BasicBlock *S = Term->getSuccessor(SI);
      if (!InLoop(S) && Live.isLiveIn(S))
        Exits.push_back({B, SI, S});
    }
  }
  if (Exits.empty())
    return false;

  // Store on every entering edge (the predecessor is outside the loop, so
  // this executes once per loop entry, not per iteration). The victim is
  // defined on every path reaching these edges because it is live into the
  // header of a strict program.
  for (BasicBlock *P : Best->Header->preds())
    if (!InLoop(P)) {
      Pending.before(P, P->size() - 1, makeSpill(V, Slot));
      ++R.SpillStores;
    }

  // Reload on a dedicated block per exit edge. Landing the reload in the
  // successor itself would be wrong when the successor is also reachable
  // around the loop — that path never wrote the slot.
  for (const ExitEdge &Edge : Exits) {
    BasicBlock *E = Names.block();
    E->append(makeReload(V, Slot));
    E->append(std::make_unique<Instruction>(
        Opcode::Br, nullptr, std::vector<Operand>{},
        std::vector<BasicBlock *>{Edge.To}));
    Edge.From->terminator()->setSuccessor(Edge.SuccIdx, E);
    Edge.To->replacePred(Edge.From, E);
    F.addPredEdge(E, Edge.From);
    Loops->splitEdge(Edge.From, E, Edge.To);
    ++R.Reloads;
  }
  ++R.RangesSplit;
  return true;
}

void Rewriter::spillEverywhere(Variable *V, std::span<const Site> Sites,
                               unsigned Slot, bool IsParam) {
  for (const Site &S : Sites) {
    Instruction *I = S.B->insts()[S.Pos].get();
    if (I->uses(V)) {
      Variable *T = Names.temp();
      markFlag(NoSpill, T->id());
      Pending.before(S.B, S.Pos, makeReload(T, Slot));
      I->forEachUse([&](Operand &O) {
        if (O.getVar() == V)
          O = Operand::var(T);
      });
      ++R.Reloads;
    }
    if (I->getDef() == V) {
      Variable *T = Names.temp();
      markFlag(NoSpill, T->id());
      I->setDef(T);
      Pending.after(S.B, S.Pos, makeSpill(T, Slot));
      ++R.SpillStores;
    }
  }
  if (IsParam) {
    // Parameters are defined on entry; their slot is written once there.
    Pending.front(F.entry(), makeSpill(V, Slot));
    ++R.SpillStores;
  }
}

} // namespace

SpillRewriteResult fcc::insertSpillCode(Function &F,
                                        const SpillRewriteOptions &Opts) {
  assert(F.phiCount() == 0 && "spill rewriting runs after SSA destruction");
  assert(!Opts.Machine.Classes.empty() && "machine model has no classes");
  RegAllocOptions AllocOpts;
  AllocOpts.Machine = &Opts.Machine;

  SpillRewriteResult R;
  unsigned NextSlot = 0;
  // Each variable gets at most one splitting attempt; a re-spilled victim
  // falls through to spill-everywhere, which removes it from contention
  // for good. This is what bounds the iteration count in practice.
  std::vector<bool> SplitTried;
  // Spill machinery the allocator must not pick as a victim again: fresh
  // reload/store temporaries and dissolved victims (their ranges are
  // already minimal).
  std::vector<bool> NoSpill;
  // Parameters dissolved by spill-everywhere become stack-passed: their
  // entry `spill` models the caller's argument store, so they leave the
  // coloring problem entirely (a function with more parameters than
  // registers could never color otherwise — the calling convention makes
  // parameters interfere pairwise).
  std::vector<bool> StackResident;
  AllocOpts.InfiniteCost = &NoSpill;
  AllocOpts.StackResident = &StackResident;
  // Parameters are variables of the input; spill temporaries never are.
  std::vector<bool> IsParam(F.numVariables(), false);
  for (const Variable *P : F.params())
    IsParam[P->id()] = true;
  Rewriter Rw(F, R, NoSpill);

  for (unsigned Iter = 1; Iter <= Opts.MaxIterations; ++Iter) {
    R.Alloc = allocateRegisters(F, AllocOpts);
    R.Iterations = Iter;
    if (R.Alloc.Spilled.empty())
      return R;

    if (SplitTried.size() < F.numVariables())
      SplitTried.resize(F.numVariables(), false);
    VictimSites Sites(F, R.Alloc.Spilled);
    for (const Variable *Victim : R.Alloc.Spilled) {
      Variable *V = const_cast<Variable *>(Victim);
      unsigned Slot = NextSlot++;
      R.SlotsUsed = NextSlot;
      if (Opts.SplitLiveRanges && !SplitTried[V->id()]) {
        SplitTried[V->id()] = true;
        if (Rw.trySplitAroundLoop(V, Sites.of(V), Slot))
          continue;
      }
      bool Param = V->id() < IsParam.size() && IsParam[V->id()];
      Rw.spillEverywhere(V, Sites.of(V), Slot, Param);
      if (Param)
        markFlag(StackResident, V->id());
      else
        markFlag(NoSpill, V->id());
    }
    Rw.endRound();
  }
  throw std::runtime_error(
      "spill rewriting did not converge within " +
      std::to_string(Opts.MaxIterations) + " iterations on function '" +
      F.name() + "' (machine " + Opts.Machine.Name + ")");
}
