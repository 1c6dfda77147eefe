//===- HostSpeed.cpp - The harness's reference kernel ---------------------===//

#include "Harness.h"

#include "support/SplitMix64.h"

#include <algorithm>
#include <set>
#include <unordered_map>

namespace perfbench {

/// Work shaped like a compiler's, written with the standard library only:
/// a random graph in vectors of successor lists, a depth-first walk with an
/// explicit stack, a hash map of visit numbers, a sort, an ordered set and
/// text built from numbers. It calls nothing in the library, so no change
/// to the library changes its time. It takes about 5 ms and 1.5 MB.
static uint64_t referenceKernel() {
  constexpr unsigned N = 16384;
  fcc::SplitMix64 G(0x5eed);
  std::vector<std::vector<unsigned>> Succ(N);
  for (unsigned V = 0; V != N; ++V) {
    unsigned Edges = 1 + static_cast<unsigned>(G.nextBelow(3));
    for (unsigned E = 0; E != Edges; ++E)
      Succ[V].push_back(static_cast<unsigned>(G.nextBelow(N)));
  }
  std::vector<char> Seen(N, 0);
  std::vector<unsigned> Stack{0};
  std::unordered_map<unsigned, unsigned> Order;
  while (!Stack.empty()) {
    unsigned V = Stack.back();
    Stack.pop_back();
    if (Seen[V])
      continue;
    Seen[V] = 1;
    Order.emplace(V, static_cast<unsigned>(Order.size()));
    for (unsigned W : Succ[V])
      if (!Seen[W])
        Stack.push_back(W);
  }
  std::vector<std::pair<unsigned, unsigned>> Pairs(Order.begin(), Order.end());
  std::sort(Pairs.begin(), Pairs.end());
  std::set<unsigned> Keys;
  for (unsigned K = 0; K < N; K += 3)
    Keys.insert(static_cast<unsigned>(G.nextBelow(1u << 30)));
  std::string Text;
  for (unsigned K = 0; K < N; K += 2) {
    Text += "%v";
    Text += std::to_string(Pairs[K % Pairs.size()].second);
    Text += " = add %a, %b\n";
  }
  return Pairs.size() + Keys.size() + Text.size();
}

double referenceKernelNs(bool Wall) {
  uint64_t T0 = Wall ? nowNs() : threadCpuNs();
  volatile uint64_t Sink = referenceKernel();
  (void)Sink;
  return static_cast<double>((Wall ? nowNs() : threadCpuNs()) - T0);
}

} // namespace perfbench
