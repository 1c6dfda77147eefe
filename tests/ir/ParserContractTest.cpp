//===- tests/ir/ParserContractTest.cpp ------------------------------------===//
//
// What the IR reader promises beyond accepting the language: the ids it
// hands out (variables in first-appearance order, blocks in label order)
// and the exact wording, line and priority of every diagnostic. Analyses
// key arrays by these ids and tools print these messages, so both are part
// of the reader's interface.
//
//===----------------------------------------------------------------------===//

#include "ir/IRParser.h"

#include "../common/LargeShapes.h"
#include "analysis/CFGUtils.h"
#include "analysis/DominatorTree.h"
#include "ir/Function.h"
#include "ir/IRPrinter.h"
#include "ir/Module.h"
#include "ssa/SSABuilder.h"
#include "workload/KernelSuite.h"
#include "workload/ProgramGenerator.h"
#include <gtest/gtest.h>

#include <cctype>
#include <set>
#include <sstream>

using namespace fcc;

namespace {

/// Per function, the variable names in first-appearance order and the
/// labels in text order.
struct NameOrder {
  std::vector<std::string> Vars;
  std::vector<std::string> Labels;
};

/// A line scan independent of the reader: a function starts at a line
/// beginning with "func", a label is a line holding only "name:", and every
/// "%name" outside a comment names a variable.
std::vector<NameOrder> scanNames(const std::string &Text) {
  auto IsNameChar = [](char C) {
    return std::isalnum(static_cast<unsigned char>(C)) || C == '_' || C == '.';
  };
  std::vector<NameOrder> Out;
  std::set<std::string> Seen;
  std::istringstream In(Text);
  std::string Line;
  while (std::getline(In, Line)) {
    Line = Line.substr(0, Line.find(';'));
    size_t First = Line.find_first_not_of(" \t");
    if (First == std::string::npos)
      continue;
    size_t Last = Line.find_last_not_of(" \t");
    if (Line.compare(First, 5, "func ") == 0) {
      Out.emplace_back();
      Seen.clear();
    }
    if (Line[Last] == ':')
      Out.back().Labels.push_back(Line.substr(First, Last - First));
    for (size_t I = 0; I != Line.size(); ++I) {
      if (Line[I] != '%')
        continue;
      size_t End = I + 1;
      while (End != Line.size() && IsNameChar(Line[End]))
        ++End;
      std::string Name = Line.substr(I + 1, End - I - 1);
      if (Seen.insert(Name).second)
        Out.back().Vars.push_back(Name);
      I = End - 1;
    }
  }
  return Out;
}

void expectIdsInTextOrder(const std::string &Text) {
  std::string Error;
  std::unique_ptr<Module> M = parseModule(Text, Error);
  ASSERT_NE(M, nullptr) << Error;
  std::vector<NameOrder> Expected = scanNames(Text);
  ASSERT_EQ(M->size(), Expected.size());
  for (size_t FI = 0; FI != Expected.size(); ++FI) {
    const Function &F = *M->functions()[FI];
    const NameOrder &E = Expected[FI];
    ASSERT_EQ(F.numVariables(), E.Vars.size()) << F.name();
    for (unsigned I = 0; I != F.numVariables(); ++I)
      ASSERT_EQ(F.variable(I)->name(), E.Vars[I]) << F.name() << " id " << I;
    ASSERT_EQ(F.numBlocks(), E.Labels.size()) << F.name();
    for (unsigned I = 0; I != F.numBlocks(); ++I)
      ASSERT_EQ(F.block(I)->name(), E.Labels[I]) << F.name() << " id " << I;
  }
}

TEST(ParserIdOrderTest, Kernels) {
  for (const RoutineSpec &Spec : kernelSuite()) {
    SCOPED_TRACE(Spec.Name);
    expectIdsInTextOrder(Spec.Source);
  }
}

TEST(ParserIdOrderTest, GeneratedProgramsBeforeAndAfterSSA) {
  for (unsigned Seed = 1; Seed <= 200; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    GeneratorOptions Opts;
    Opts.Seed = Seed;
    Opts.SizeBudget = 4 + Seed % 40;
    Opts.NumParams = Seed % 4;
    Module M;
    Function *F = generateProgram(M, "g" + std::to_string(Seed), Opts);
    expectIdsInTextOrder(printFunction(*F));
    // SSA form adds phis, whose operands name variables and labels too.
    splitCriticalEdges(*F);
    DominatorTree DT(*F);
    buildSSA(*F, DT);
    expectIdsInTextOrder(printFunction(*F));
  }
}

TEST(ParserIdOrderTest, LargeShapes) {
  expectIdsInTextOrder(shapes::diamondChain(300));
  expectIdsInTextOrder(shapes::wideJoin(200));
  expectIdsInTextOrder(shapes::loopNests(6));
}

TEST(ParserIdOrderTest, ForwardReferencesDoNotReorderBlocks) {
  // Successors named before their labels, in the opposite order.
  expectIdsInTextOrder("func @f(%c) {\nentry:\n  cbr %c, last, mid\n"
                       "mid:\n  br last\nlast:\n  %x = phi [1, entry], "
                       "[%c, mid]\n  ret %x\n}\n");
}

struct DiagCase {
  const char *Name;
  const char *Text;
  const char *Message;
};

// One single-fault input per reject path, with the full diagnostic.
const DiagCase DiagCases[] = {
    // Lexical faults.
    {"VarSigilWithoutName",
     "func @f() {\nentry:\n  %x = add % , 1\n  ret %x\n}\n",
     "line 3: expected variable name after '%'"},
    {"FuncSigilWithoutName", "func @ () {\nentry:\n  ret 0\n}\n",
     "line 1: expected function name after '@'"},
    {"MinusWithoutDigits", "func @f() {\nentry:\n  %x = const -\n  ret %x\n}\n",
     "line 3: expected digits in integer literal"},
    {"UnexpectedCharacter", "func @f() {\nentry:\n  ret 0 $\n}\n",
     "line 3: unexpected character '$'"},
    {"NonAsciiByte", "func @f() {\nentry:\n  ret \xc3\xa9\n}\n",
     "line 3: unexpected character '\xc3'"},
    {"IntegerLiteralTooLarge",
     "func @f() {\nentry:\n  %x = const 99999999999999999999\n  ret %x\n}\n",
     "line 3: integer literal out of range"},
    {"IntegerLiteralTooSmall",
     "func @f() {\nentry:\n  ret -9223372036854775809\n}\n",
     "line 3: integer literal out of range"},
    // Function headers.
    {"MissingFunc", "\nret 0\n", "line 2: expected 'func'"},
    {"TrailingBrace", "func @f() {\nentry:\n  ret 0\n}\n}\n",
     "line 5: expected 'func'"},
    {"MissingFunctionName", "func f() {\nentry:\n  ret 0\n}\n",
     "line 1: expected '@name' after 'func'"},
    {"MissingLParen", "func @f {\nentry:\n  ret 0\n}\n", "line 1: expected '('"},
    {"ParameterWithoutSigil", "func @f(a) {\nentry:\n  ret 0\n}\n",
     "line 1: expected parameter '%name'"},
    {"DuplicateParameter", "func @f(%a,\n%a\n) {\nentry:\n  ret %a\n}\n",
     "line 3: duplicate parameter '%a'"},
    {"MissingRParen", "func @f(%a {\nentry:\n  ret 0\n}\n",
     "line 1: expected ')'"},
    {"MissingLBrace", "func @f()\nentry:\n  ret 0\n}\n", "line 2: expected '{'"},
    // Function bodies.
    {"DuplicateLabel",
     "func @f() {\nentry:\n  br b\nb:\n  ret 0\nb:\n  ret 1\n}\n",
     "line 6: duplicate label 'b'"},
    {"NoBlocks", "func @f() {\n}\n", "line 2: function has no blocks"},
    {"EndOfInputInFunction", "func @f() {\nentry:\n  ret 0\n",
     "line 4: unexpected end of input inside function"},
    {"StatementBeforeFirstLabel",
     "func @f() {\n  %x = const 1\nentry:\n  ret %x\n}\n",
     "line 2: expected block label"},
    {"MissingTerminator", "func @f() {\nentry:\n  %x = const 1\n}\n",
     "block 'entry' in function 'f' lacks a terminator"},
    {"StatementAfterTerminator", "func @f() {\nentry:\n  ret 0\n  ret 1\n}\n",
     "line 4: statement after terminator in block 'entry'"},
    // Value statements.
    {"MissingEquals", "func @f() {\nentry:\n  %x const 1\n  ret %x\n}\n",
     "line 3: expected '='"},
    {"MissingMnemonic", "func @f() {\nentry:\n  %x = 1\n  ret %x\n}\n",
     "line 3: expected opcode mnemonic"},
    {"UnknownValueOpcode", "func @f() {\nentry:\n  %x = frob 1\n  ret %x\n}\n",
     "line 3: unknown value opcode 'frob'"},
    {"EffectOpcodeAsValue",
     "func @f() {\nentry:\n  %x = store 1, 2\n  ret %x\n}\n",
     "line 3: unknown value opcode 'store'"},
    {"ConstOfVariable", "func @f(%a) {\nentry:\n  %x = const %a\n  ret %x\n}\n",
     "line 3: 'const' requires an integer literal"},
    {"ReloadOfVariable",
     "func @f(%a) {\nentry:\n  %x = reload %a\n  ret %x\n}\n",
     "line 3: 'reload' requires an integer slot literal"},
    {"MissingOperandComma",
     "func @f(%a) {\nentry:\n  %x = add %a %a\n  ret %x\n}\n",
     "line 3: expected ','"},
    {"LabelAsOperand", "func @f(%a) {\nentry:\n  %x = add %a, foo\n  ret %x\n}\n",
     "line 3: expected operand ('%name' or integer)"},
    {"CopyOfImmediate", "func @f() {\nentry:\n  %x = copy 5\n  ret %x\n}\n",
     "line 4: 'copy' source must be a variable (use 'const' for immediates)"},
    // Phis (the block j has predecessors l and r).
    {"PhiWithoutBracket",
     "func @f(%c) {\nentry:\n  cbr %c, l, r\nl:\n  br j\nr:\n  br j\nj:\n"
     "  %x = phi 1, l\n  ret %x\n}\n",
     "line 9: expected '['"},
    {"PhiLabelAsValue",
     "func @f(%c) {\nentry:\n  cbr %c, l, r\nl:\n  br j\nr:\n  br j\nj:\n"
     "  %x = phi [l, 1], [2, r]\n  ret %x\n}\n",
     "line 9: expected operand ('%name' or integer)"},
    {"PhiMissingComma",
     "func @f(%c) {\nentry:\n  cbr %c, l, r\nl:\n  br j\nr:\n  br j\nj:\n"
     "  %x = phi [1 l], [2, r]\n  ret %x\n}\n",
     "line 9: expected ','"},
    {"PhiIntegerAsLabel",
     "func @f(%c) {\nentry:\n  cbr %c, l, r\nl:\n  br j\nr:\n  br j\nj:\n"
     "  %x = phi [1, 2], [2, r]\n  ret %x\n}\n",
     "line 9: expected predecessor label in phi"},
    {"PhiMissingRBracket",
     "func @f(%c) {\nentry:\n  cbr %c, l, r\nl:\n  br j\nr:\n  br j\nj:\n"
     "  %x = phi [1, l, [2, r]\n  ret %x\n}\n",
     "line 9: expected ']'"},
    {"PhiTooFewValues",
     "func @f(%c) {\nentry:\n  cbr %c, l, r\nl:\n  br j\nr:\n  br j\nj:\n"
     "  %x = phi [1, l]\n  ret %x\n}\n",
     "line 9: phi in block 'j' has 1 incoming values but the block has 2 "
     "predecessors"},
    {"PhiUnknownBlock",
     "func @f(%c) {\nentry:\n  cbr %c, l, r\nl:\n  br j\nr:\n  br j\nj:\n"
     "  %x = phi [1, l],\n    [2, q]\n  ret %x\n}\n",
     "line 10: unknown phi block 'q'"},
    {"PhiDuplicateEntry",
     "func @f(%c) {\nentry:\n  cbr %c, l, r\nl:\n  br j\nr:\n  br j\nj:\n"
     "  %x = phi [1, l], [2, l]\n  ret %x\n}\n",
     "line 9: duplicate phi entry for block 'l'"},
    {"PhiFromNonPredecessor",
     "func @f(%c) {\nentry:\n  cbr %c, l, r\nl:\n  br j\nr:\n  br j\nj:\n"
     "  %x = phi [1, l], [2, entry]\n  ret %x\n}\n",
     "line 9: block 'entry' is not a predecessor of 'j'"},
    // Effect and control statements.
    {"StatementStartsWithInteger", "func @f() {\nentry:\n  5\n  ret 0\n}\n",
     "line 3: expected statement"},
    {"UnknownStatement", "func @f(%a) {\nentry:\n  frob %a\n  ret 0\n}\n",
     "line 3: unknown statement 'frob'"},
    {"ValueOpcodeAsStatement",
     "func @f(%a) {\nentry:\n  add %a, 1\n  ret 0\n}\n",
     "line 3: unknown statement 'add'"},
    {"StoreMissingComma", "func @f(%a) {\nentry:\n  store %a %a\n  ret 0\n}\n",
     "line 3: expected ','"},
    {"BranchToInteger", "func @f() {\nentry:\n  br 5\n}\n",
     "line 3: expected block label"},
    {"UnknownBranchTarget", "func @f() {\nentry:\n  br nowhere\n}\n",
     "line 4: unknown block label 'nowhere'"},
    {"UnknownCbrTarget",
     "func @f(%c) {\nentry:\n  cbr %c, next,\n    nowhere\nnext:\n  ret 0\n}\n",
     "line 5: unknown block label 'nowhere'"},
    {"CbrSameTargets",
     "func @f(%c) {\nentry:\n  cbr %c, n, n\nn:\n  ret 1\n}\n",
     "line 3: 'cbr' successors must be distinct (multi-edges would break "
     "phi/predecessor alignment)"},
    {"RetWithoutOperand", "func @f() {\nentry:\n  ret\n}\n",
     "line 4: expected operand ('%name' or integer)"},
    {"SpillOfImmediate", "func @f() {\nentry:\n  spill 1, 0\n  ret 0\n}\n",
     "line 3: 'spill' value must be a variable"},
    {"SpillToVariableSlot",
     "func @f(%a) {\nentry:\n  spill %a, %a\n  ret 0\n}\n",
     "line 3: 'spill' requires an integer slot literal"},
    {"SpillMissingComma", "func @f(%a) {\nentry:\n  spill %a 0\n  ret 0\n}\n",
     "line 3: expected ','"},
};

class ParserDiagnosticTest : public ::testing::TestWithParam<DiagCase> {};

TEST_P(ParserDiagnosticTest, ExactMessage) {
  std::string Error;
  std::unique_ptr<Module> M = parseModule(GetParam().Text, Error);
  EXPECT_EQ(M, nullptr);
  EXPECT_EQ(Error, GetParam().Message);
}

INSTANTIATE_TEST_SUITE_P(
    RejectPaths, ParserDiagnosticTest, ::testing::ValuesIn(DiagCases),
    [](const ::testing::TestParamInfo<DiagCase> &Info) {
      return std::string(Info.param.Name);
    });

// Inputs with several faults: which one is reported is fixed, and is a
// function of the text alone.
const DiagCase PriorityCases[] = {
    {"LexicalFaultBeatsEarlierSyntaxFault",
     "func @f() {\nentry:\n  %x = frob 1\n  ret %x\n}\nfunc @g() {\nentry:\n"
     "  ret $\n}\n",
     "line 8: unexpected character '$'"},
    {"DuplicateLabelBeatsEarlierStatementFault",
     "func @f() {\nentry:\n  %x = frob 1\n  br b\nb:\n  ret 0\nb:\n  ret 1\n}\n",
     "line 7: duplicate label 'b'"},
    {"UnknownTargetBeatsLaterStatementFault",
     "func @f() {\nentry:\n  br nowhere\nb:\n  %x = frob 1\n  ret %x\n}\n",
     "line 4: unknown block label 'nowhere'"},
    {"MissingTerminatorBeatsPhiFault",
     "func @f() {\nentry:\n  br j\nj:\n  %x = phi [1, q]\n}\n",
     "block 'j' in function 'f' lacks a terminator"},
    {"EarlierFunctionFirst",
     "func @f() {\nentry:\n  %x = frob 1\n  ret %x\n}\nfunc @g() {\nentry:\n"
     "  br nowhere\n}\n",
     "line 3: unknown value opcode 'frob'"},
};

class ParserDiagnosticPriorityTest
    : public ::testing::TestWithParam<DiagCase> {};

TEST_P(ParserDiagnosticPriorityTest, FirstFaultByRank) {
  std::string Error;
  std::unique_ptr<Module> M = parseModule(GetParam().Text, Error);
  EXPECT_EQ(M, nullptr);
  EXPECT_EQ(Error, GetParam().Message);
}

INSTANTIATE_TEST_SUITE_P(
    MultiFault, ParserDiagnosticPriorityTest, ::testing::ValuesIn(PriorityCases),
    [](const ::testing::TestParamInfo<DiagCase> &Info) {
      return std::string(Info.param.Name);
    });

} // namespace
