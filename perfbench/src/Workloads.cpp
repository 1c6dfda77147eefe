//===- Workloads.cpp - Seeded input generation ----------------------------===//
///
/// Every input the benchmark compiles is generated here and handed to the
/// library only as IR text.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "ir/Function.h"
#include "ir/IRPrinter.h"
#include "ir/Module.h"
#include "support/SplitMix64.h"
#include "workload/KernelSuite.h"

#include <algorithm>
#include <cctype>
#include <cstdio>

using namespace fcc;

namespace perfbench {

std::string seedSuffix(uint64_t Seed) {
  if (Seed == 0)
    return std::string();
  char Buf[16];
  std::snprintf(Buf, sizeof(Buf), "_s%05u",
                static_cast<unsigned>(SplitMix64(Seed).next() % 100000));
  return Buf;
}

/// Seeds vary the text the program sees, not the programs: every variable
/// and function is renamed with a seed-derived suffix and the units are
/// compiled in a seed-shuffled order. The programs' structure stays fixed so
/// that the count metrics, and the work behind the time metrics, compare
/// exactly across seeds. Seed 0 leaves the units as generated.
static void applySeed(std::vector<Unit> &Units, uint64_t Seed) {
  if (Seed == 0)
    return;
  SplitMix64 Rng(Seed);
  std::string Suffix = seedSuffix(Seed);
  for (Unit &U : Units)
    U.Text = alphaRename(U.Text, Suffix);
  for (size_t I = Units.size(); I > 1; --I)
    std::swap(Units[I - 1], Units[Rng.nextBelow(I)]);
}

std::vector<Unit> paperUnits(uint64_t Seed, unsigned Count) {
  std::vector<Unit> Units;
  for (const RoutineSpec &Spec : paperSuite(Count)) {
    std::unique_ptr<Module> M = Spec.materialize();
    Unit U;
    U.Name = Spec.Name;
    U.Text = printFunction(*M->functions()[0]);
    U.Args = Spec.Args;
    Units.push_back(std::move(U));
  }
  applySeed(Units, Seed);
  return Units;
}

namespace {

/// Appends lines of IR text.
struct Emitter {
  std::string Text;
  SplitMix64 Rng;

  explicit Emitter(uint64_t Seed) : Rng(Seed) {}

  void line(const std::string &L) {
    Text += L;
    Text += '\n';
  }
  void label(const std::string &L) { line(L + ":"); }
  std::string num(int64_t V) { return std::to_string(V); }
  int64_t pick(int64_t Lo, int64_t Hi) { return Rng.nextInRange(Lo, Hi); }
};

/// One long phi web: %x is redefined on both arms of every diamond and the
/// arms exchange values through copies, so SSA construction places a phi
/// per join and the coalescer sees one web spanning the whole chain.
std::string diamondChain(uint64_t Seed, unsigned Diamonds,
                         const std::string &Name) {
  Emitter E(Seed);
  E.line("func @" + Name + "(%a, %b) {");
  E.label("entry");
  E.line("  %x = copy %a");
  E.line("  %y = copy %b");
  E.line("  %s = const 0");
  E.line("  br d0");
  for (unsigned K = 0; K != Diamonds; ++K) {
    std::string Id = E.num(K), Next = E.num(K + 1);
    E.label("d" + Id);
    E.line("  %c = cmplt %x, " + E.num(E.pick(-40, 40)));
    E.line("  cbr %c, l" + Id + ", r" + Id);
    E.label("l" + Id);
    E.line("  %t = copy %x");
    E.line("  %x = add %t, " + E.num(E.pick(1, 9)));
    E.line("  %y = copy %t");
    E.line("  br d" + Next);
    E.label("r" + Id);
    E.line("  %x = sub %x, " + E.num(E.pick(1, 9)));
    E.line("  %s = add %s, %y");
    E.line("  br d" + Next);
  }
  E.label("d" + E.num(Diamonds));
  E.line("  %r = add %x, %y");
  E.line("  %r = add %r, %s");
  E.line("  ret %r");
  E.line("}");
  return E.Text;
}

/// One straight-line block of thousands of copies among a few variables:
/// the copy-folding path of SSA construction.
std::string copyBlock(uint64_t Seed, unsigned Copies) {
  constexpr unsigned Vars = 8;
  Emitter E(Seed);
  auto V = [&](unsigned I) { return "%v" + E.num(I); };
  E.line("func @copies(%a, %b) {");
  E.label("entry");
  for (unsigned I = 0; I != Vars; ++I)
    E.line("  " + V(I) + " = add " + (I % 2 ? "%a" : "%b") + ", " +
           E.num(I));
  E.line("  br body");
  E.label("body");
  for (unsigned K = 0; K != Copies; ++K) {
    unsigned D = static_cast<unsigned>(E.Rng.nextBelow(Vars));
    unsigned S = (D + 1 + static_cast<unsigned>(E.Rng.nextBelow(Vars - 1))) %
                 Vars;
    if (K % 16 == 15)
      E.line("  " + V(D) + " = add " + V(S) + ", " + V(D));
    else
      E.line("  " + V(D) + " = copy " + V(S));
  }
  E.line("  br done");
  E.label("done");
  E.line("  %r = add %v0, %v1");
  for (unsigned I = 2; I != Vars; ++I)
    E.line("  %r = add %r, " + V(I));
  E.line("  ret %r");
  E.line("}");
  return E.Text;
}

/// A dispatch chain whose arms all branch to one join, so every variable
/// gets a phi with one operand per arm.
std::string wideJoin(uint64_t Seed, unsigned Arms) {
  constexpr unsigned Vars = 4;
  Emitter E(Seed);
  auto V = [&](unsigned I) { return "%v" + E.num(I); };
  E.line("func @widejoin(%a, %b) {");
  E.label("entry");
  E.line("  %m = mul %a, 7");
  E.line("  %m = add %m, %b");
  E.line("  %sel = mod %m, " + E.num(Arms));
  for (unsigned I = 0; I != Vars; ++I)
    E.line("  " + V(I) + " = add %a, " + E.num(I));
  E.line("  br t0");
  for (unsigned K = 0; K != Arms; ++K) {
    std::string Id = E.num(K);
    E.label("t" + Id);
    E.line("  %c = cmpeq %sel, " + Id);
    E.line("  cbr %c, arm" + Id + ", t" + E.num(K + 1));
    E.label("arm" + Id);
    for (unsigned I = 0; I != Vars; ++I) {
      unsigned S = static_cast<unsigned>(E.Rng.nextBelow(Vars));
      if (E.Rng.chancePercent(50) && S != I)
        E.line("  " + V(I) + " = copy " + V(S));
      else
        E.line("  " + V(I) + " = add " + V(S) + ", " +
               E.num(E.pick(1, 99)));
    }
    E.line("  br join");
  }
  E.label("t" + E.num(Arms));
  E.line("  br join");
  E.label("join");
  E.line("  %r = mul %v0, 3");
  for (unsigned I = 1; I != Vars; ++I)
    E.line("  %r = add %r, " + V(I));
  E.line("  ret %r");
  E.line("}");
  return E.Text;
}

/// Sequential loop nests of depth \p Depth; loop-carried %s and %p get a
/// phi at every header of every level.
std::string loopNests(uint64_t Seed, unsigned Nests, unsigned Depth) {
  Emitter E(Seed);
  E.line("func @loopnest(%a, %b) {");
  E.label("entry");
  E.line("  %s = copy %a");
  E.line("  %p = copy %b");
  unsigned Block = 0;
  // Emits a loop at \p Level whose preheader code is already in the
  // current block; leaves the current block at the loop's exit.
  auto Nest = [&](auto &Self, unsigned Level) -> void {
    std::string Id = E.num(Block++);
    std::string I = "%i" + E.num(Level);
    // Most levels run once; every fifth runs twice, which bounds the
    // interpreted steps while every level stays a real loop.
    unsigned Trip = Level % 5 == 0 ? 2 : 1;
    E.line("  " + I + " = const 0");
    E.line("  br h" + Id);
    E.label("h" + Id);
    E.line("  %c = cmplt " + I + ", " + E.num(Trip));
    E.line("  cbr %c, b" + Id + ", e" + Id);
    E.label("b" + Id);
    if (Level + 1 < Depth) {
      Self(Self, Level + 1);
    } else {
      E.line("  %t = copy %s");
      E.line("  %s = add %t, " + I);
      E.line("  %p = add %p, " + E.num(E.pick(1, 5)));
      E.line("  %s = copy %p");
      E.line("  %p = add %t, 1");
    }
    E.line("  " + I + " = add " + I + ", 1");
    E.line("  br h" + Id);
    E.label("e" + Id);
  };
  for (unsigned N = 0; N != Nests; ++N)
    Nest(Nest, 0);
  E.line("  %r = add %s, %p");
  E.line("  ret %r");
  E.line("}");
  return E.Text;
}

} // namespace

std::vector<Unit> bigCfgUnits(uint64_t Seed, double Scale) {
  auto N = [&](double Base) {
    return std::max(2u, static_cast<unsigned>(Base * Scale));
  };
  SplitMix64 Rng(0xb16cf6ull); // Fixed: the seed only renames and reorders.
  std::vector<Unit> Units;
  auto Add = [&](std::string Name, std::string Text) {
    Unit U;
    U.Name = std::move(Name);
    U.Text = std::move(Text);
    U.Args = {Rng.nextInRange(-20, 20), Rng.nextInRange(0, 50)};
    Units.push_back(std::move(U));
  };
  // Two diamond chains a size doubling apart, so the benchmark itself
  // shows how the cost grows; an odd function count keeps the median
  // unit inside one shape's cluster of samples.
  Add("diamonds", diamondChain(Rng.next(), N(2200), "diamonds"));
  Add("diamonds_half", diamondChain(Rng.next(), N(1100), "diamonds_half"));
  Add("copies", copyBlock(Rng.next(), N(8000)));
  Add("widejoin", wideJoin(Rng.next(), N(3000)));
  Add("loopnest", loopNests(Rng.next(), N(140), 16));
  applySeed(Units, Seed);
  return Units;
}

std::string alphaRename(const std::string &Text, const std::string &Suffix) {
  std::string Out;
  Out.reserve(Text.size() + Text.size() / 8);
  auto IsIdent = [](char C) {
    return std::isalnum(static_cast<unsigned char>(C)) || C == '_' || C == '.';
  };
  for (size_t I = 0; I != Text.size();) {
    char C = Text[I];
    Out += C;
    ++I;
    if (C == ';') { // Comment: copy to end of line.
      while (I != Text.size() && Text[I] != '\n')
        Out += Text[I++];
      continue;
    }
    if (C != '%' && C != '@')
      continue;
    size_t Start = I;
    while (I != Text.size() && IsIdent(Text[I]))
      ++I;
    Out.append(Text, Start, I - Start);
    if (I != Start)
      Out += Suffix;
  }
  return Out;
}

} // namespace perfbench
