//===- tests/ir/ParserRobustnessTest.cpp ----------------------------------===//
//
// The parser must reject arbitrary mutations of valid programs with a
// diagnostic — never crash, never accept garbage that then trips asserts
// downstream. Classic fuzz-shaped property test with deterministic seeds.
//
//===----------------------------------------------------------------------===//

#include "ir/IRParser.h"

#include "../common/TestPrograms.h"
#include "ir/Function.h"
#include "ir/IRPrinter.h"
#include "ir/Module.h"
#include "ir/Verifier.h"
#include "support/SplitMix64.h"
#include <gtest/gtest.h>

using namespace fcc;

namespace {

const char *Corpus[] = {testprogs::SumLoop, testprogs::Diamond,
                        testprogs::VirtualSwap, testprogs::NestedLoops,
                        testprogs::ArraySum};

class ParserMutationTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(ParserMutationTest, MutatedSourcesNeverCrashTheParser) {
  SplitMix64 Rng(GetParam());
  std::string Base = Corpus[Rng.nextBelow(std::size(Corpus))];

  for (int Trial = 0; Trial != 40; ++Trial) {
    std::string Text = Base;
    unsigned Mutations = 1 + static_cast<unsigned>(Rng.nextBelow(4));
    for (unsigned I = 0; I != Mutations; ++I) {
      size_t Pos = Rng.nextBelow(Text.size());
      switch (Rng.nextBelow(6)) {
      case 0: // Delete a character.
        Text.erase(Pos, 1);
        break;
      case 1: // Duplicate a character.
        Text.insert(Pos, 1, Text[Pos]);
        break;
      case 2: // Replace with a random printable character.
        Text[Pos] = static_cast<char>(' ' + Rng.nextBelow(95));
        break;
      case 3: // Swap two characters.
        std::swap(Text[Pos], Text[Rng.nextBelow(Text.size())]);
        break;
      case 4: { // Insert a run of digits, up to long enough to overflow.
        std::string Digits(1 + Rng.nextBelow(24), '0');
        for (char &D : Digits)
          D = static_cast<char>('0' + Rng.nextBelow(10));
        Text.insert(Pos, Digits);
        break;
      }
      case 5: // Replace with a byte outside ASCII.
        Text[Pos] = static_cast<char>(0x80 + Rng.nextBelow(128));
        break;
      }
    }

    std::string Error;
    std::unique_ptr<Module> M = parseModule(Text, Error);
    if (!M) {
      EXPECT_FALSE(Error.empty()) << "rejections must carry a diagnostic";
      continue;
    }
    // If the mutation still parses, it must be a well-formed program the
    // rest of the system can safely consume.
    for (const auto &F : M->functions()) {
      std::string VerifyError;
      if (verifyFunction(*F, VerifyError)) {
        // And printing must round-trip without losing it.
        std::string Printed = printFunction(*F);
        std::unique_ptr<Module> M2 = parseModule(Printed, VerifyError);
        EXPECT_NE(M2, nullptr) << VerifyError;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserMutationTest, ::testing::Range(1u, 21u));

TEST(ParserRobustnessTest, EmptyAndWhitespaceInputs) {
  std::string Error;
  auto M1 = parseModule("", Error);
  ASSERT_NE(M1, nullptr);
  EXPECT_EQ(M1->size(), 0u);
  auto M2 = parseModule("   \n\t ; only a comment\n", Error);
  ASSERT_NE(M2, nullptr);
  EXPECT_EQ(M2->size(), 0u);
}

TEST(ParserRobustnessTest, TruncatedInputsAreRejected) {
  const std::string Full = testprogs::SumLoop;
  for (size_t Len : {5ul, 20ul, 50ul, 100ul, Full.size() - 2}) {
    std::string Error;
    auto M = parseModule(Full.substr(0, Len), Error);
    EXPECT_EQ(M, nullptr) << "prefix of length " << Len;
    EXPECT_FALSE(Error.empty());
  }
}

TEST(ParserRobustnessTest, DeeplyNestedLabelsParse) {
  // A long chain of blocks: no recursion in the parser should overflow.
  std::string Text = "func @f() {\nb0:\n";
  for (int I = 1; I != 2000; ++I)
    Text += "  br b" + std::to_string(I) + "\nb" + std::to_string(I) + ":\n";
  Text += "  ret 0\n}\n";
  std::string Error;
  auto M = parseModule(Text, Error);
  ASSERT_NE(M, nullptr) << Error;
  EXPECT_EQ(M->functions()[0]->numBlocks(), 2000u);
}

} // namespace
