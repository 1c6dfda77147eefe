//===- tests/common/LargeShapes.h - Scalable CFG shapes ---------*- C++ -*-===//
///
/// \file
/// Seeded generators for the three CFG shapes whose size the scaling tests
/// double: a chain of diamonds carrying one long phi web, a wide join whose
/// phis take one operand per arm, and a sequence of deep loop nests. Each
/// returns textual IR for one strict, terminating function.
///
//===----------------------------------------------------------------------===//

#ifndef FCC_TESTS_COMMON_LARGESHAPES_H
#define FCC_TESTS_COMMON_LARGESHAPES_H

#include "support/SplitMix64.h"

#include <cstdint>
#include <string>

namespace fcc::shapes {

/// \p Diamonds diamonds in a row. %x is redefined on both arms and the arms
/// exchange values through copies, so one phi web spans the whole chain.
inline std::string diamondChain(unsigned Diamonds, uint64_t Seed = 1) {
  SplitMix64 Rng(Seed);
  auto Num = [](int64_t V) { return std::to_string(V); };
  std::string T = "func @diamonds(%a, %b) {\nentry:\n  %x = copy %a\n"
                  "  %y = copy %b\n  %s = const 0\n  br d0\n";
  for (unsigned K = 0; K != Diamonds; ++K) {
    std::string Id = Num(K), Next = Num(K + 1);
    T += "d" + Id + ":\n  %c = cmplt %x, " + Num(Rng.nextInRange(-40, 40)) +
         "\n  cbr %c, l" + Id + ", r" + Id + "\n";
    T += "l" + Id + ":\n  %t = copy %x\n  %x = add %t, " +
         Num(Rng.nextInRange(1, 9)) + "\n  %y = copy %t\n  br d" + Next + "\n";
    T += "r" + Id + ":\n  %x = sub %x, " + Num(Rng.nextInRange(1, 9)) +
         "\n  %s = add %s, %y\n  br d" + Next + "\n";
  }
  T += "d" + Num(Diamonds) +
       ":\n  %r = add %x, %y\n  %r = add %r, %s\n  ret %r\n}\n";
  return T;
}

/// A dispatch chain of \p Arms arms that all branch to one join, so each of
/// four variables gets a phi with one operand per arm.
inline std::string wideJoin(unsigned Arms, uint64_t Seed = 2) {
  constexpr unsigned Vars = 4;
  SplitMix64 Rng(Seed);
  auto Num = [](int64_t V) { return std::to_string(V); };
  auto V = [&](unsigned I) { return "%v" + Num(I); };
  std::string T = "func @widejoin(%a, %b) {\nentry:\n  %m = mul %a, 7\n"
                  "  %m = add %m, %b\n  %sel = mod %m, " +
                  Num(Arms) + "\n";
  for (unsigned I = 0; I != Vars; ++I)
    T += "  " + V(I) + " = add %a, " + Num(I) + "\n";
  T += "  br t0\n";
  for (unsigned K = 0; K != Arms; ++K) {
    std::string Id = Num(K);
    T += "t" + Id + ":\n  %c = cmpeq %sel, " + Id + "\n  cbr %c, arm" + Id +
         ", t" + Num(K + 1) + "\narm" + Id + ":\n";
    for (unsigned I = 0; I != Vars; ++I) {
      unsigned S = static_cast<unsigned>(Rng.nextBelow(Vars));
      if (Rng.chancePercent(50) && S != I)
        T += "  " + V(I) + " = copy " + V(S) + "\n";
      else
        T += "  " + V(I) + " = add " + V(S) + ", " +
             Num(Rng.nextInRange(1, 99)) + "\n";
    }
    T += "  br join\n";
  }
  T += "t" + Num(Arms) + ":\n  br join\njoin:\n  %r = mul %v0, 3\n";
  for (unsigned I = 1; I != Vars; ++I)
    T += "  %r = add %r, " + V(I) + "\n";
  T += "  ret %r\n}\n";
  return T;
}

/// \p Nests loop nests of depth \p Depth in sequence; the loop-carried %s
/// and %p get a phi at every header of every level.
inline std::string loopNests(unsigned Nests, unsigned Depth = 16,
                             uint64_t Seed = 3) {
  SplitMix64 Rng(Seed);
  auto Num = [](int64_t V) { return std::to_string(V); };
  std::string T = "func @loopnest(%a, %b) {\nentry:\n  %s = copy %a\n"
                  "  %p = copy %b\n";
  unsigned Block = 0;
  auto Nest = [&](auto &Self, unsigned Level) -> void {
    std::string Id = Num(Block++), I = "%i" + Num(Level);
    unsigned Trip = Level % 5 == 0 ? 2 : 1;
    T += "  " + I + " = const 0\n  br h" + Id + "\nh" + Id +
         ":\n  %c = cmplt " + I + ", " + Num(Trip) + "\n  cbr %c, b" + Id +
         ", e" + Id + "\nb" + Id + ":\n";
    if (Level + 1 < Depth)
      Self(Self, Level + 1);
    else
      T += "  %t = copy %s\n  %s = add %t, " + I + "\n  %p = add %p, " +
           Num(Rng.nextInRange(1, 5)) + "\n  %s = copy %p\n  %p = add %t, 1\n";
    T += "  " + I + " = add " + I + ", 1\n  br h" + Id + "\ne" + Id + ":\n";
  };
  for (unsigned N = 0; N != Nests; ++N)
    Nest(Nest, 0);
  T += "  %r = add %s, %p\n  ret %r\n}\n";
  return T;
}

} // namespace fcc::shapes

#endif // FCC_TESTS_COMMON_LARGESHAPES_H
