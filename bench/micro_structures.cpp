//===- bench/micro_structures.cpp -----------------------------------------===//
//
// google-benchmark microbenchmarks for the data structures behind the
// paper's complexity claims (Section 3.7): union-find unions at O(alpha),
// dominance-forest construction linear in the set size, liveness, and the
// quadratic interference-graph build it all avoids.
//
//===----------------------------------------------------------------------===//

#include "analysis/DominatorTree.h"
#include "analysis/Liveness.h"
#include "baseline/InterferenceGraph.h"
#include "coalesce/DominanceForest.h"
#include "ir/Function.h"
#include "ir/Module.h"
#include "support/SplitMix64.h"
#include "support/UnionFind.h"
#include "workload/ProgramGenerator.h"

#include <benchmark/benchmark.h>

using namespace fcc;

namespace {

/// A big generated routine shared by the IR-level microbenchmarks.
Module &bigModule() {
  static Module *M = [] {
    auto *Mod = new Module();
    GeneratorOptions Opts;
    Opts.Seed = 77;
    Opts.SizeBudget = 120;
    Opts.NumVars = 14;
    generateProgram(*Mod, "big", Opts);
    return Mod;
  }();
  return *M;
}

void BM_UnionFind(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  for (auto _ : State) {
    UnionFind UF(N);
    SplitMix64 Rng(1);
    for (unsigned I = 0; I != N; ++I)
      UF.unite(static_cast<unsigned>(Rng.nextBelow(N)),
               static_cast<unsigned>(Rng.nextBelow(N)));
    benchmark::DoNotOptimize(UF.find(0));
  }
  State.SetItemsProcessed(State.iterations() * N);
}
BENCHMARK(BM_UnionFind)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_DominatorTree(benchmark::State &State) {
  Function &F = *bigModule().functions()[0];
  for (auto _ : State) {
    DominatorTree DT(F);
    benchmark::DoNotOptimize(DT.preorder(F.entry()));
  }
}
BENCHMARK(BM_DominatorTree);

void BM_Liveness(benchmark::State &State) {
  Function &F = *bigModule().functions()[0];
  for (auto _ : State) {
    Liveness LV(F);
    benchmark::DoNotOptimize(LV.liveIn(F.entry()).size());
  }
}
BENCHMARK(BM_Liveness);

void BM_DominanceForest(benchmark::State &State) {
  Function &F = *bigModule().functions()[0];
  DominatorTree DT(F);
  // One member per block: the worst-case set for one forest.
  std::vector<ForestMember> Members;
  std::vector<Variable *> Vars;
  for (const auto &B : F.blocks())
    Members.push_back({F.variable(B->id() % F.numVariables()), B.get(), 1});
  for (auto _ : State) {
    DominanceForest Forest(Members, DT);
    benchmark::DoNotOptimize(Forest.roots().size());
  }
  State.SetItemsProcessed(State.iterations() * Members.size());
}
BENCHMARK(BM_DominanceForest);

void BM_InterferenceGraphFull(benchmark::State &State) {
  Function &F = *bigModule().functions()[0];
  Liveness LV(F);
  for (auto _ : State) {
    InterferenceGraph Graph(F, LV);
    benchmark::DoNotOptimize(Graph.edgeCount());
  }
}
BENCHMARK(BM_InterferenceGraphFull);

} // namespace

BENCHMARK_MAIN();
