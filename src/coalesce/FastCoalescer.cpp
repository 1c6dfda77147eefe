//===- coalesce/FastCoalescer.cpp -----------------------------------------===//

#include "coalesce/FastCoalescer.h"

#include "analysis/CFGUtils.h"
#include "analysis/DominatorTree.h"
#include "analysis/LoopInfo.h"
#include "analysis/Liveness.h"
#include "coalesce/DominanceForest.h"
#include "ir/BasicBlock.h"
#include "ir/Function.h"
#include "ir/Variable.h"
#include "ssa/ParallelCopy.h"
#include "support/Stats.h"

#include <algorithm>

using namespace fcc;

FastCoalescer::FastCoalescer(Function &F, const DominatorTree &DT,
                             const Liveness &LV,
                             const FastCoalescerOptions &Opts)
    : F(F), DT(DT), LV(LV), Opts(Opts) {
  assert(!hasCriticalEdges(F) && "split critical edges before coalescing");
  unsigned NumVars = F.numVariables();
  Sets.grow(NumVars);
  Removed.assign(NumVars, false);
  PhiDegree.assign(NumVars, 0);
  DefBlock.assign(NumVars, nullptr);
  DefPos.assign(NumVars, 0);

  for (Variable *P : F.params()) {
    DefBlock[P->id()] = F.entry();
    DefPos[P->id()] = 0;
  }

  // Eviction costs: one pending copy per phi connection, optionally
  // weighted by the loop depth of the edge the copy would land on.
  std::unique_ptr<LoopInfo> LI;
  if (Opts.DepthWeightedCosts)
    LI = std::make_unique<LoopInfo>(DT);
  auto EdgeWeight = [&](const BasicBlock *Pred) -> uint64_t {
    if (!LI)
      return 1;
    unsigned Depth = std::min(LI->loopDepth(Pred), 12u);
    uint64_t W = 1;
    for (unsigned D = 0; D != Depth; ++D)
      W *= 10;
    return W;
  };

  for (const auto &B : F.blocks()) {
    assert((B->phis().empty() || B->getNumPreds() >= 2) &&
           "single-predecessor phis unsupported: edge copies placed at the "
           "end of the predecessor would execute on its other out-edges");
    for (const auto &Phi : B->phis()) {
      Variable *Def = Phi->getDef();
      assert(!DefBlock[Def->id()] && "multiple defs: not SSA");
      DefBlock[Def->id()] = B.get();
      DefPos[Def->id()] = 0;
      for (unsigned Idx = 0, E = Phi->getNumOperands(); Idx != E; ++Idx) {
        uint64_t W = EdgeWeight(B->preds()[Idx]);
        PhiDegree[Def->id()] += W;
        const Operand &O = Phi->getOperand(Idx);
        if (O.isVar())
          PhiDegree[O.getVar()->id()] += W;
      }
    }
    unsigned Pos = 1;
    for (const auto &I : B->insts()) {
      if (Variable *Def = I->getDef()) {
        assert(!DefBlock[Def->id()] && "multiple defs: not SSA");
        DefBlock[Def->id()] = B.get();
        DefPos[Def->id()] = Pos;
      }
      ++Pos;
    }
  }

  // Member-set keys in dominator-tree preorder, plus each definition's
  // dominated preorder range end for the treap's subtree queries.
  Nodes.assign(NumVars, {});
  for (unsigned Id = 0; Id != NumVars; ++Id)
    if (DefBlock[Id]) {
      Nodes[Id].Key =
          (static_cast<uint64_t>(DT.preorder(DefBlock[Id])) << 32) |
          DefPos[Id];
      Nodes[Id].DomEnd = DT.maxPreorder(DefBlock[Id]);
    }
}

namespace {
/// Deterministic treap priority: a SplitMix64 finalizer over the id.
uint32_t treapPriority(unsigned Id) {
  uint64_t Z = (Id + 1) * 0x9e3779b97f4a7c15ull;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return static_cast<uint32_t>((Z ^ (Z >> 31)) >> 32);
}
} // namespace

void FastCoalescer::computePartition() {
  if (PartitionDone)
    return;
  PartitionDone = true;
  unsigned NumVars = F.numVariables();
  Active.assign(NumVars, true);
  FinalRep.assign(NumVars, nullptr);

  while (true) {
    ++Stats.Rounds;
    Sets = UnionFind(NumVars);
    Removed.assign(NumVars, false);
    LocalPairs.clear();
    resetMembers();

    {
      PhaseScope P(Opts.Instr, "fast.build-sets", "coalesce");
      buildInitialSets();
    }
    {
      PhaseScope P(Opts.Instr, "fast.forest-walk", "coalesce");
      walkForests();
    }
    {
      PhaseScope P(Opts.Instr, "fast.local-scan", "coalesce");
      resolveLocalInterference();
    }

    Stats.PeakBytes += Sets.bytes() + Removed.size() / 8 +
                       LocalPairs.capacity() * sizeof(LocalPair) +
                       (TreeOf.capacity() + SeenStamp.capacity()) *
                           sizeof(unsigned);

    // Freeze this round's survivors. Canonical member: a parameter when the
    // set contains one (the incoming value cannot be renamed away from it —
    // a correctness condition, not a heuristic), else the lowest id.
    std::vector<Variable *> RootRep(NumVars, nullptr);
    for (unsigned Id = 0; Id != NumVars; ++Id) {
      if (!Active[Id] || Removed[Id])
        continue;
      unsigned Root = Sets.find(Id);
      Variable *V = F.variable(Id);
      if (!RootRep[Root])
        RootRep[Root] = V;
      else if (F.isParam(V)) {
        assert(!F.isParam(RootRep[Root]) &&
               "two live parameters merged into one set");
        RootRep[Root] = V;
      }
    }
    unsigned EvictedCount = 0;
    for (unsigned Id = 0; Id != NumVars; ++Id) {
      if (!Active[Id])
        continue;
      if (Removed[Id]) {
        ++EvictedCount; // Stays active for the next round.
        continue;
      }
      FinalRep[Id] = RootRep[Sets.find(Id)];
      Active[Id] = false;
    }

    if (EvictedCount == 0)
      break;
    if (!Opts.RecoalesceEvicted) {
      // The paper's behavior: evicted members become singletons.
      for (unsigned Id = 0; Id != NumVars; ++Id)
        if (Active[Id]) {
          FinalRep[Id] = F.variable(Id);
          Active[Id] = false;
        }
      break;
    }
    if (Opts.Trace)
      std::fprintf(Opts.Trace,
                   "  round %u evicted %u members; re-coalescing them\n",
                   Stats.Rounds, EvictedCount);
  }

  Stats.PeakBytes += PhiDegree.capacity() * sizeof(uint64_t) +
                     DefBlock.capacity() * sizeof(BasicBlock *) +
                     DefPos.capacity() * sizeof(unsigned) +
                     Nodes.capacity() * sizeof(TreapNode) +
                     FinalRep.capacity() * sizeof(Variable *) +
                     Active.size() / 8;
}

Variable *FastCoalescer::rep(const Variable *V) const {
  assert(PartitionDone && "computePartition() first");
  assert(V->id() < FinalRep.size() && "foreign variable");
  Variable *Canonical = FinalRep[V->id()];
  assert(Canonical && "variable was never frozen");
  return Canonical;
}

bool FastCoalescer::isMerged(unsigned A, unsigned B) {
  return !Removed[A] && !Removed[B] && Sets.find(A) == Sets.find(B);
}

void FastCoalescer::evict(unsigned VarId) {
  assert(!Removed[VarId] && "double eviction");
  Removed[VarId] = true;
}

unsigned FastCoalescer::lastUseIn(const BasicBlock *B, unsigned VarId) {
  if (LastUseCache.empty()) {
    LastUseCache.resize(F.numBlocks());
    LastUseReady.assign(F.numBlocks(), false);
    LastUseScratch.resizeUniverse(F.numVariables());
  }
  if (!LastUseReady[B->id()]) {
    LastUseReady[B->id()] = true;
    // One forward scan through the reusable sparse map, then freeze the
    // result as a sorted arena array the binary search below probes. The
    // code never changes during partitioning, so the cache is valid for
    // every round.
    LastUseScratch.clear();
    unsigned Pos = 1;
    for (const auto &I : B->insts()) {
      I->forEachUsedVar([&](Variable *V) { LastUseScratch[V->id()] = Pos; });
      ++Pos;
    }
    unsigned Count = LastUseScratch.size();
    auto *Frozen = CacheArena.allocateArray<std::pair<unsigned, unsigned>>(
        Count);
    unsigned Out = 0;
    for (const auto &E : LastUseScratch.entries())
      Frozen[Out++] = {E.Key, E.Value};
    std::sort(Frozen, Frozen + Count,
              [](const auto &L, const auto &R) { return L.first < R.first; });
    LastUseCache[B->id()] = {Frozen, Count};
  }
  const LastUseList &List = LastUseCache[B->id()];
  const auto *It = std::lower_bound(
      List.Data, List.Data + List.Size, VarId,
      [](const std::pair<unsigned, unsigned> &E, unsigned Key) {
        return E.first < Key;
      });
  return It != List.Data + List.Size && It->first == VarId ? It->second : 0;
}

bool FastCoalescer::localOverlap(unsigned ParentId, unsigned ChildId) {
  BasicBlock *B = DefBlock[ChildId];
  if (LV.isLiveOut(B, F.variable(ParentId)))
    return true;
  unsigned LiveEnd = lastUseIn(B, ParentId);
  if (LiveEnd == 0)
    LiveEnd = DefBlock[ParentId] == B ? DefPos[ParentId] : 0;
  // Parallel definitions at the block top (two phis, or phi + parameter)
  // always clash; otherwise the parent must die before the child is born.
  return LiveEnd > DefPos[ChildId] ||
         (DefBlock[ParentId] == B && DefPos[ParentId] == DefPos[ChildId]);
}

bool FastCoalescer::dominatingOverlap(unsigned AncId, unsigned Id) {
  ++Stats.PairsChecked;
  const BasicBlock *IdBlock = DefBlock[Id];
  const Variable *Anc = F.variable(AncId);
  return LV.isLiveOut(IdBlock, Anc) ||
         (LV.isLiveIn(IdBlock, Anc) && localOverlap(AncId, Id));
}

void FastCoalescer::pull(unsigned T) {
  TreapNode &N = Nodes[T];
  unsigned End = N.DomEnd;
  if (N.Left != kNone)
    End = std::max(End, Nodes[N.Left].SubtreeEnd);
  if (N.Right != kNone)
    End = std::max(End, Nodes[N.Right].SubtreeEnd);
  N.SubtreeEnd = End;
}

void FastCoalescer::treapSplit(unsigned T, uint64_t Key, unsigned &L,
                               unsigned &R) {
  // L receives the keys <= Key, R the rest.
  if (T == kNone) {
    L = R = kNone;
    return;
  }
  if (Nodes[T].Key <= Key) {
    treapSplit(Nodes[T].Right, Key, Nodes[T].Right, R);
    L = T;
  } else {
    treapSplit(Nodes[T].Left, Key, L, Nodes[T].Left);
    R = T;
  }
  pull(T);
}

unsigned FastCoalescer::treapInsert(unsigned Root, unsigned X) {
  // Descend while the current node outranks X, widening each SubtreeEnd on
  // the way (X ends up below it), then split the subtree found there around
  // X. X lands after every member with an equal key.
  TreapNode &NX = Nodes[X];
  uint32_t Priority = treapPriority(X);
  unsigned *Link = &Root;
  while (*Link != kNone && treapPriority(*Link) >= Priority) {
    TreapNode &N = Nodes[*Link];
    N.SubtreeEnd = std::max(N.SubtreeEnd, NX.DomEnd);
    Link = NX.Key < N.Key ? &N.Left : &N.Right;
  }
  treapSplit(*Link, NX.Key, NX.Left, NX.Right);
  pull(X);
  *Link = X;
  return Root;
}

unsigned FastCoalescer::firstAtLeast(unsigned T, uint64_t Key) const {
  unsigned Best = kNone;
  while (T != kNone) {
    if (Nodes[T].Key >= Key) {
      Best = T;
      T = Nodes[T].Left;
    } else {
      T = Nodes[T].Right;
    }
  }
  return Best;
}

void FastCoalescer::neighbours(unsigned T, uint64_t Key, unsigned &Prev,
                               unsigned &Next) const {
  Prev = Next = kNone;
  while (T != kNone) {
    if (Nodes[T].Key >= Key) {
      Next = T;
      T = Nodes[T].Left;
    } else {
      Prev = T;
      T = Nodes[T].Right;
    }
  }
}

unsigned FastCoalescer::nearestDominator(unsigned T, unsigned Pre) const {
  // The rightmost member among blocks with a smaller preorder whose
  // dominated range reaches Pre. Subtrees whose SubtreeEnd falls short are
  // skipped whole, so this is one root-to-leaf descent plus the search
  // path for the key bound.
  if (T == kNone || Nodes[T].SubtreeEnd < Pre)
    return kNone;
  if (preorderOf(T) >= Pre)
    return nearestDominator(Nodes[T].Left, Pre);
  if (unsigned R = nearestDominator(Nodes[T].Right, Pre); R != kNone)
    return R;
  if (Nodes[T].DomEnd >= Pre)
    return T;
  return nearestDominator(Nodes[T].Left, Pre);
}

void FastCoalescer::resetMembers() {
  unsigned NumVars = F.numVariables();
  TreeOf.resize(NumVars);
  for (unsigned Id = 0; Id != NumVars; ++Id) {
    TreapNode &N = Nodes[Id];
    N.Left = N.Right = kNone;
    N.SubtreeEnd = N.DomEnd;
    TreeOf[Id] = Id;
  }
}

void FastCoalescer::collectMembers(unsigned Root, std::vector<unsigned> &Out) {
  unsigned T = TreeOf[Root];
  ScratchStack.clear();
  while (T != kNone || !ScratchStack.empty()) {
    for (; T != kNone; T = Nodes[T].Left)
      ScratchStack.push_back(T);
    T = ScratchStack.back();
    ScratchStack.pop_back();
    Out.push_back(T);
    T = Nodes[T].Right;
  }
}

void FastCoalescer::mergeMembers(unsigned Keep, unsigned Lose) {
  ScratchMembers.clear();
  collectMembers(Lose, ScratchMembers);
  unsigned T = TreeOf[Keep];
  for (unsigned X : ScratchMembers) {
    Nodes[X].Left = Nodes[X].Right = kNone;
    Nodes[X].SubtreeEnd = Nodes[X].DomEnd;
    T = treapInsert(T, X);
  }
  TreeOf[Keep] = T;
}

bool FastCoalescer::setsWouldInterfere(unsigned Keep, unsigned Lose) {
  // The Figure 1 stack scan of the merged member list checks, for each
  // member v, every earlier member of v's block and v's nearest member in
  // a strictly dominating block. Each set on its own already passed that
  // scan when it was formed, and every same-set pair the merged scan
  // checks is one the set's own scan checked (DESIGN.md). So only the
  // cross pairs can interfere, and those are found by treap queries around
  // each member of the smaller set S = Lose against the larger L = Keep.
  // Where the scan would check a run of pairs whose outcome is monotone in
  // the definition position, only the run's first pair is tested.
  const unsigned L = TreeOf[Keep], S = TreeOf[Lose];
  ScratchMembers.clear();
  collectMembers(Lose, ScratchMembers);
  const std::vector<unsigned> &Small = ScratchMembers;

  for (size_t I = 0; I != Small.size(); ++I) {
    unsigned V = Small[I];
    const BasicBlock *Block = DefBlock[V];
    unsigned Pre = preorderOf(V);

    // Around V the pairs are tested in the order the merged scan meets
    // them. Parallel definitions (equal keys) always clash.
    unsigned Prev, Next;
    neighbours(L, Nodes[V].Key, Prev, Next);
    bool NextInBlock = Next != kNone && DefBlock[Next] == Block;
    if (NextInBlock && Nodes[Next].Key == Nodes[V].Key) {
      ++Stats.PairsChecked;
      return true;
    }

    // An earlier member of L in V's block. One that died before its L
    // successor's definition dies before V's too, so only V's immediate L
    // predecessor can overlap V.
    if (Prev != kNone && DefBlock[Prev] == Block) {
      ++Stats.PairsChecked;
      if (localOverlap(Prev, V))
        return true;
    }

    // V's nearest merged ancestor in a strictly dominating block, when it
    // comes from L. Later S members of the block share that ancestor and
    // overlap it only if the first one does.
    if (I == 0 || DefBlock[Small[I - 1]] != Block) {
      unsigned AncL = nearestDominator(L, Pre);
      if (AncL != kNone) {
        unsigned AncS = nearestDominator(S, Pre);
        if ((AncS == kNone || Nodes[AncS].Key < Nodes[AncL].Key) &&
            dominatingOverlap(AncL, V))
          return true;
      }
    }

    // A later member of L in V's block overlaps V only if the first does.
    if (NextInBlock) {
      ++Stats.PairsChecked;
      if (localOverlap(V, Next))
        return true;
    }

    // L members whose nearest merged ancestor becomes V: the first L member
    // of every L block in V's dominator subtree that no member between
    // them dominates. Only the last S member of a block can be such an
    // ancestor, and not when an L member follows it in the block. Walk the
    // subtree's preorder range, jumping over the subtree of each L block
    // found and of each S block met first.
    bool LastInBlock = I + 1 == Small.size() || DefBlock[Small[I + 1]] != Block;
    if (!LastInBlock || NextInBlock)
      continue;
    unsigned End = Nodes[V].DomEnd;
    for (unsigned P = Pre + 1; P <= End;) {
      uint64_t From = static_cast<uint64_t>(P) << 32;
      unsigned W = firstAtLeast(L, From);
      if (W == kNone || preorderOf(W) > End)
        break;
      unsigned C = firstAtLeast(S, From);
      if (C != kNone && preorderOf(C) < preorderOf(W)) {
        P = Nodes[C].DomEnd + 1;
        continue;
      }
      if (dominatingOverlap(V, W))
        return true;
      P = Nodes[W].DomEnd + 1;
    }
  }
  return false;
}

/// Phase 1 (Section 3.1): optimistic unions with five filtering tests (and,
/// in eager mode, the exhaustive set-versus-set forest check).
void FastCoalescer::buildInitialSets() {
  ClaimedBy.resizeUniverse(F.numVariables());
  SeenStamp.assign(F.numBlocks(), 0);
  unsigned Stamp = 0;

  // Deterministic dominator-tree preorder over blocks.
  for (BasicBlock *B : DT.preorderBlocks()) {
    // Filter 4 state: which phi of this block claimed which set. The sparse
    // map is only ever probed by key, so reusing it across blocks cannot
    // perturb any decision.
    ClaimedBy.clear();
    for (const auto &Phi : B->phis()) {
      Variable *P = Phi->getDef();
      if (!Active[P->id()])
        continue; // Frozen in an earlier round.
      // Filter 5 state: blocks stamped with this phi's stamp define one of
      // its accepted arguments.
      ++Stamp;

      for (unsigned Idx = 0, E = Phi->getNumOperands(); Idx != E; ++Idx) {
        const Operand &O = Phi->getOperand(Idx);
        if (O.isImm())
          continue; // Materialized as a constant on the edge at rewrite.
        Variable *A = O.getVar();
        if (!Active[A->id()])
          continue; // Frozen: the copy materializes at rewrite.
        if (Sets.find(A->id()) == Sets.find(P->id()))
          continue; // Already joined (duplicate argument, earlier phi).

        BasicBlock *ADef = DefBlock[A->id()];
        assert(ADef && "phi argument without a definition");

        // Tests 1-5 of Section 3.1, first hit wins.
        int RejectedBy = 0;
        if (LV.isLiveIn(B, A))
          RejectedBy = 1; // The argument flows past the phi into b.
        else if (LV.isLiveOut(ADef, P))
          RejectedBy = 2; // The phi result is live beyond a's block.
        else if (ADef != B && !ADef->phis().empty() &&
                 DefPos[A->id()] == 0 && !F.isParam(A) &&
                 LV.isLiveIn(ADef, P))
          RejectedBy = 3; // a is a phi result whose block p enters live.
        else if (const Instruction *const *Claimant =
                     ClaimedBy.lookup(Sets.find(A->id()));
                 Claimant && *Claimant != Phi.get())
          RejectedBy = 4; // Another phi of this block claimed a's set.
        else if (SeenStamp[ADef->id()] == Stamp)
          RejectedBy = 5; // Two arguments of this phi share a block.

        if (RejectedBy != 0 && Opts.UseFilters) {
          ++Stats.FilterRejections;
          if (Opts.Trace)
            std::fprintf(Opts.Trace,
                         "  filter %d: keep %s out of %s's set (block %s)\n",
                         RejectedBy, A->name().c_str(), P->name().c_str(),
                         B->name().c_str());
          continue; // The copy materializes from the partition at rewrite.
        }

        // UnionFind::unite keeps the larger set's root (RootP on a tie).
        unsigned RootP = Sets.find(P->id());
        unsigned RootA = Sets.find(A->id());
        unsigned Keep =
            Sets.setSize(RootP) < Sets.setSize(RootA) ? RootA : RootP;
        unsigned Lose = Keep == RootP ? RootA : RootP;
        if (Opts.EagerSetChecks && setsWouldInterfere(Keep, Lose)) {
          ++Stats.FilterRejections;
          if (Opts.Trace)
            std::fprintf(Opts.Trace,
                         "  eager: merging %s's and %s's sets would "
                         "interfere (block %s)\n",
                         A->name().c_str(), P->name().c_str(),
                         B->name().c_str());
          continue;
        }
        [[maybe_unused]] unsigned NewRoot = Sets.unite(RootP, RootA);
        assert(NewRoot == Keep && "unite kept the other root");
        mergeMembers(Keep, Lose);
        SeenStamp[ADef->id()] = Stamp;
      }
      ClaimedBy[Sets.find(P->id())] = Phi.get();
    }
  }
}

/// Phases 2-3 (Sections 3.2, 3.3): dominance forests and the Figure 2 walk.
void FastCoalescer::walkForests() {
  if (Opts.EagerSetChecks) {
    // Every union was vetted by the same forest scan before it happened, so
    // the lazy re-walk cannot find anything; the interference-checker tests
    // cross-validate that invariant. Skipping it keeps the eager mode's
    // compile time linear in practice.
    return;
  }
  unsigned NumVars = F.numVariables();

  // Phase 1 maintains each set's members in key order; only multi-member
  // sets need a forest.
  std::vector<unsigned> Members;
  for (unsigned Root = 0; Root != NumVars; ++Root) {
    if (Sets.find(Root) != Root || Sets.setSize(Root) < 2)
      continue;
    Members.clear();
    collectMembers(Root, Members);

    std::vector<ForestMember> FM;
    FM.reserve(Members.size());
    for (unsigned Id : Members)
      FM.push_back({F.variable(Id), DefBlock[Id], DefPos[Id]});
    DominanceForest Forest(std::move(FM), DT, /*PreSorted=*/true);
    Stats.PeakBytes = std::max(Stats.PeakBytes, Forest.bytes());

    const auto &Nodes = Forest.nodes();

    // Does evicting the child actually help, or is the parent doomed by its
    // other children anyway? (Figure 2's "p can not interfere with any of
    // its other children".)
    auto ParentThreatensOthers = [&](unsigned ParentNode,
                                     unsigned ExceptNode) {
      const Variable *P = Nodes[ParentNode].Member.Var;
      for (int KidIdx = Nodes[ParentNode].FirstChild; KidIdx >= 0;
           KidIdx = Nodes[KidIdx].NextSibling) {
        unsigned Kid = static_cast<unsigned>(KidIdx);
        if (Kid == ExceptNode || Removed[Nodes[Kid].Member.Var->id()])
          continue;
        const auto &KM = Nodes[Kid].Member;
        if (LV.isLiveOut(KM.DefBlock, P) || LV.isLiveIn(KM.DefBlock, P) ||
            KM.DefBlock == Nodes[ParentNode].Member.DefBlock)
          return true;
      }
      return false;
    };

    // Preorder walk. Each node is checked against (a) every surviving
    // same-block ancestor on its chain and (b) the nearest surviving
    // ancestor from a different block. Lemma 3.1 makes (b) sufficient
    // across blocks; within a block Definition 3.1's premise fails, and the
    // local-interference pass resolves pairs only after all walks finish,
    // so every same-block ancestor must be queued explicitly or an eviction
    // in between would leave a pair unchecked.
    for (unsigned N = 0; N != Nodes.size(); ++N) {
      const ForestMember &CM = Nodes[N].Member;
      unsigned C = CM.Var->id();
      if (Removed[C])
        continue;

      auto CheckAgainst = [&](int AncIdx) {
        // Returns false when N was evicted (no further checks needed).
        const ForestMember &PM = Nodes[AncIdx].Member;
        unsigned P = PM.Var->id();
        if (LV.isLiveOut(CM.DefBlock, PM.Var)) {
          // Certain interference: the parent is live across the child's
          // whole defining block. Evict the endpoint costing fewer copies,
          // unless the parent is doomed by its other children anyway.
          bool EvictChild =
              !Opts.CostBasedVictims ||
              (cost(C) < cost(P) &&
               !ParentThreatensOthers(static_cast<unsigned>(AncIdx), N));
          if (Opts.Trace)
            std::fprintf(Opts.Trace,
                         "  forest: %s live out of %s's block %s -> evict "
                         "%s (cost %llu vs %llu)\n",
                         PM.Var->name().c_str(), CM.Var->name().c_str(),
                         CM.DefBlock->name().c_str(),
                         (EvictChild ? CM : PM).Var->name().c_str(),
                         static_cast<unsigned long long>(cost(C)),
                         static_cast<unsigned long long>(cost(P)));
          evict(EvictChild ? C : P);
          ++Stats.ForestEvictions;
          return !EvictChild;
        }
        if (LV.isLiveIn(CM.DefBlock, PM.Var) || CM.DefBlock == PM.DefBlock)
          LocalPairs.push_back({P, C});
        return true;
      };

      bool Alive = true;
      int Anc = Nodes[N].Parent;
      // Same-block ancestors are a contiguous chain directly above N.
      while (Alive && Anc >= 0 &&
             Nodes[Anc].Member.DefBlock == CM.DefBlock) {
        if (!Removed[Nodes[Anc].Member.Var->id()])
          Alive = CheckAgainst(Anc);
        Anc = Nodes[Anc].Parent;
      }
      // Nearest surviving different-block ancestor.
      while (Alive && Anc >= 0 && Removed[Nodes[Anc].Member.Var->id()])
        Anc = Nodes[Anc].Parent;
      if (Alive && Anc >= 0)
        CheckAgainst(Anc);
    }
  }
}

/// Phase 4 (Section 3.4): backward in-block scans for pairs the boundary
/// information could not decide.
void FastCoalescer::resolveLocalInterference() {
  if (LocalPairs.empty())
    return;

  // Group pairs by the child's defining block so each block is scanned once.
  auto ByBlock = [&](const LocalPair &L, const LocalPair &R) {
    return DefBlock[L.Child]->id() < DefBlock[R.Child]->id();
  };
  std::stable_sort(LocalPairs.begin(), LocalPairs.end(), ByBlock);

  size_t Idx = 0;
  while (Idx != LocalPairs.size()) {
    BasicBlock *B = DefBlock[LocalPairs[Idx].Child];
    size_t End = Idx;
    while (End != LocalPairs.size() && DefBlock[LocalPairs[End].Child] == B)
      ++End;

    // One forward scan: the last position each variable is used at in B.
    // Body instruction i sits at position i + 1; phis at 0. The scratch map
    // is reused across blocks and rounds (lookup-only, never iterated, so
    // its insertion order cannot leak into results).
    LastUseScratch.resizeUniverse(F.numVariables());
    LastUseScratch.clear();
    unsigned Pos = 1;
    for (const auto &I : B->insts()) {
      I->forEachUsedVar([&](Variable *V) { LastUseScratch[V->id()] = Pos; });
      ++Pos;
    }

    for (; Idx != End; ++Idx) {
      unsigned P = LocalPairs[Idx].Parent, C = LocalPairs[Idx].Child;
      if (!isMerged(P, C))
        continue; // An earlier eviction already separated them.

      bool Interferes;
      if (LV.isLiveOut(B, F.variable(P))) {
        // The forest walk only queues live-in/same-block pairs, but an
        // eviction elsewhere cannot weaken liveness, so recheck for safety.
        Interferes = true;
      } else {
        const unsigned *Found = LastUseScratch.lookup(P);
        unsigned LiveEnd = Found ? *Found : DefPos[P];
        // Both defined at the top (two phis, or a phi and a parameter):
        // parallel definitions interfere outright.
        Interferes = LiveEnd > DefPos[C] ||
                     (DefBlock[P] == B && DefPos[P] == DefPos[C]);
      }
      if (!Interferes)
        continue;
      if (Opts.Trace)
        std::fprintf(Opts.Trace,
                     "  local: %s overlaps %s inside block %s -> evict %s\n",
                     F.variable(P)->name().c_str(),
                     F.variable(C)->name().c_str(), B->name().c_str(),
                     F.variable(cost(C) <= cost(P) ? C : P)->name().c_str());
      evict(cost(C) <= cost(P) ? C : P);
      ++Stats.LocalEvictions;
    }
  }
}

FastCoalesceStats FastCoalescer::rewrite() {
  computePartition();
  PhaseScope Phase(Opts.Instr, "fast.rewrite", "coalesce");
  unsigned TempCounter = 0;

  // The Waiting array of Section 3: per-block pending copies derived from
  // the final partition. Copies for the edge pred -> b sit in Waiting[pred];
  // with critical edges split, pred reaches only b, so "end of pred" is
  // exactly "on the edge".
  std::vector<std::vector<CopyTask>> Waiting(F.numBlocks());
  for (const auto &B : F.blocks()) {
    for (const auto &Phi : B->phis()) {
      Variable *DstRep = rep(Phi->getDef());
      for (unsigned Idx = 0, E = Phi->getNumOperands(); Idx != E; ++Idx) {
        const Operand &O = Phi->getOperand(Idx);
        BasicBlock *Pred = B->preds()[Idx];
        if (O.isImm()) {
          Waiting[Pred->id()].push_back({DstRep, O});
          continue;
        }
        Variable *SrcRep = rep(O.getVar());
        if (SrcRep == DstRep)
          continue; // Coalesced: the value is already in place.
        for ([[maybe_unused]] const CopyTask &T : Waiting[Pred->id()])
          assert(T.Dst != DstRep && "two phis writing one location on an "
                                    "edge: partition is unsound");
        Waiting[Pred->id()].push_back({DstRep, Operand::var(SrcRep)});
      }
    }
  }
  for (const auto &Tasks : Waiting)
    Stats.PeakBytes += Tasks.capacity() * sizeof(CopyTask);

  // Count surviving multi-member sets before renaming.
  {
    std::vector<bool> RootSeen(F.numVariables(), false);
    for (unsigned Id = 0, E = F.numVariables(); Id != E; ++Id) {
      if (Removed[Id] || Sets.setSize(Id) < 2)
        continue;
      unsigned Root = Sets.find(Id);
      if (!RootSeen[Root]) {
        RootSeen[Root] = true;
        ++Stats.SetsRenamed;
      }
    }
  }

  // Rename defs and uses to representatives; drop copies that became
  // self-copies (that is the coalescing taking effect on explicit copies).
  std::vector<Instruction *> SelfCopies;
  for (const auto &B : F.blocks()) {
    SelfCopies.clear();
    for (const auto &I : B->insts()) {
      I->forEachUse([&](Operand &O) { O.setVar(rep(O.getVar())); });
      if (Variable *Def = I->getDef())
        I->setDef(rep(Def));
      if (I->isCopy() && I->getDef() == I->getOperand(0).getVar())
        SelfCopies.push_back(I.get());
    }
    B->eraseInsts(SelfCopies);
  }

  // Materialize the pending copies and delete the phis.
  for (unsigned Id = 0, E = F.numBlocks(); Id != E; ++Id) {
    if (Waiting[Id].empty())
      continue;
    SequencedCopies Seq =
        sequentializeParallelCopy(Waiting[Id], F, TempCounter);
#ifdef FCC_FUZZ_PLANT_BUG
    // Deliberate off-by-one for the fuzzing acceptance test (the fcc_planted
    // library only): drop the last sequenced copy of every parallel-copy
    // group. The partition audit runs before this point, so only the
    // differential oracle's dynamic comparison can catch it.
    if (!Seq.Insts.empty())
      Seq.Insts.pop_back();
#endif
    Stats.CopiesInserted += static_cast<unsigned>(Seq.Insts.size());
    Stats.TempsUsed += Seq.TempsUsed;
    BasicBlock *Pred = F.block(Id);
    for (auto &I : Seq.Insts)
      Pred->insertBeforeTerminator(std::move(I));
  }
  for (const auto &B : F.blocks())
    B->takePhis();

  if (Opts.Instr && Opts.Instr->Stats) {
    StatsRegistry &R = *Opts.Instr->Stats;
    R.bump("fast.copies-inserted", Stats.CopiesInserted);
    R.bump("fast.temps-used", Stats.TempsUsed);
    R.bump("fast.filter-rejections", Stats.FilterRejections);
    R.bump("fast.forest-evictions", Stats.ForestEvictions);
    R.bump("fast.local-evictions", Stats.LocalEvictions);
    R.bump("fast.sets-renamed", Stats.SetsRenamed);
    R.bump("fast.rounds", Stats.Rounds);
    R.bump("fast.pairs-checked", Stats.PairsChecked);
  }
  return Stats;
}

FastCoalesceStats fcc::coalesceSSA(Function &F, const DominatorTree &DT,
                                   const Liveness &LV,
                                   const FastCoalescerOptions &Opts) {
  FastCoalescer Coalescer(F, DT, LV, Opts);
  Coalescer.computePartition();
  return Coalescer.rewrite();
}
