//===- ir/IRParser.cpp ----------------------------------------------------===//
//
// One pass over the text: a cursor lexes one token at a time, each token a
// view into the text, and the reader builds the Function as it goes. Names
// resolve through hash tables keyed by those views. Branches to labels not
// seen yet, and phis, whose operand order needs the final predecessor lists,
// are settled at the function's '}'. DESIGN.md §15 states the rules.
//
//===----------------------------------------------------------------------===//

#include "ir/IRParser.h"

#include "ir/BasicBlock.h"
#include "ir/Opcode.h"
#include "ir/Variable.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

using namespace fcc;

namespace {

// The punctuation kinds are in the order of their characters in Punct.
enum class TokenKind {
  Ident, VarRef, FuncRef, Integer, // Names are kept without their sigil.
  LParen, RParen, LBrace, RBrace, LBracket, RBracket, Comma, Colon, Equals,
  EndOfFile,
  Fault, // A lexical fault; the reader holds its diagnostic.
};
constexpr std::string_view Punct = "(){}[],:=";

struct Token {
  TokenKind Kind;
  std::string_view Text;
  int64_t Value;
  unsigned Line;
};

// Character classes of the C locale, whatever the process locale is.
enum : uint8_t { Space = 1, Digit = 2, NameChar = 4 };

constexpr std::array<uint8_t, 256> CharClasses = [] {
  std::array<uint8_t, 256> Classes{};
  for (unsigned char C : {' ', '\t', '\n', '\v', '\f', '\r'})
    Classes[C] = Space;
  for (unsigned C = 0; C != 256; ++C) {
    bool IsDigit = C >= '0' && C <= '9';
    if (IsDigit)
      Classes[C] |= Digit;
    if (IsDigit || (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
        C == '_' || C == '.')
      Classes[C] |= NameChar;
  }
  return Classes;
}();

bool is(char C, uint8_t Class) {
  return CharClasses[static_cast<unsigned char>(C)] & Class;
}

std::string atLine(unsigned Line, std::string_view Message) {
  return "line " + std::to_string(Line) + ": " + std::string(Message);
}

/// A position in the text and its line. Copyable, so a scan can look ahead
/// or read again from a saved point.
struct Cursor {
  const char *P;
  const char *End;
  unsigned Line = 1;

  /// Skips whitespace and ';' comments.
  void skipBlank() {
    while (P != End) {
      if (is(*P, Space)) {
        Line += *P == '\n';
        ++P;
      } else if (*P == ';') {
        const void *NL = std::memchr(P, '\n', End - P);
        P = NL ? static_cast<const char *>(NL) : End;
      } else {
        return;
      }
    }
  }

  /// True when the next token is ':'. A label is a name followed by ':'.
  bool colonFollows() const {
    Cursor Ahead = *this;
    Ahead.skipBlank();
    return Ahead.P != Ahead.End && *Ahead.P == ':';
  }

  /// Reads the next token. A lexical fault yields a Fault token and puts
  /// its diagnostic in \p Fault.
  Token lex(std::string &Fault);
};

Token Cursor::lex(std::string &Fault) {
  skipBlank();
  Token T{TokenKind::EndOfFile, {}, 0, Line};
  if (P == End)
    return T;
  auto Failed = [&](std::string_view Message) {
    Fault = atLine(Line, Message);
    T.Kind = TokenKind::Fault;
    return T;
  };
  auto ReadName = [&] {
    const char *Start = P;
    while (P != End && is(*P, NameChar))
      ++P;
    T.Text = std::string_view(Start, P - Start);
  };

  char C = *P;
  if (C == '-' || is(C, Digit)) {
    const char *Start = P++;
    if (C == '-' && (P == End || !is(*P, Digit)))
      return Failed("expected digits in integer literal");
    while (P != End && is(*P, Digit))
      ++P;
    if (std::from_chars(Start, P, T.Value).ec != std::errc())
      return Failed("integer literal out of range");
    T.Kind = TokenKind::Integer;
  } else if (is(C, NameChar)) {
    ReadName();
    T.Kind = TokenKind::Ident;
  } else if (C == '%' || C == '@') {
    ++P;
    ReadName();
    if (T.Text.empty())
      return Failed(C == '%' ? "expected variable name after '%'"
                             : "expected function name after '@'");
    T.Kind = C == '%' ? TokenKind::VarRef : TokenKind::FuncRef;
  } else if (size_t K = Punct.find(C); K != Punct.npos) {
    ++P;
    T.Kind = static_cast<TokenKind>(static_cast<size_t>(TokenKind::LParen) + K);
  } else {
    return Failed(std::string("unexpected character '") + C + "'");
  }
  return T;
}

/// A table from mnemonic to opcode, built once from opcodeName().
std::optional<Opcode> mnemonicToOpcode(std::string_view Name) {
  static const std::unordered_map<std::string_view, Opcode> Table = [] {
    std::unordered_map<std::string_view, Opcode> T;
    for (unsigned I = 0; I != static_cast<unsigned>(Opcode::NumOpcodes); ++I)
      T.emplace(opcodeName(static_cast<Opcode>(I)), static_cast<Opcode>(I));
    return T;
  }();
  auto It = Table.find(Name);
  if (It == Table.end())
    return std::nullopt;
  return It->second;
}

/// Open-addressing map from names (views into the text) to IR objects.
template <typename T> class NameTable {
public:
  /// The entry for \p Name; a new entry holds nullptr.
  T *&operator[](std::string_view Name) {
    if (2 * (Size + 1) > Slots.size())
      grow();
    Slot &S = Slots[find(Name)];
    if (S.Name.empty()) {
      S.Name = Name;
      ++Size;
    }
    return S.Value;
  }

  void clear() {
    Slots.assign(MinSlots, Slot{}); // Reuses an earlier function's buffer.
    Size = 0;
  }

private:
  struct Slot {
    std::string_view Name; // Empty when unused; names never are.
    T *Value = nullptr;
  };
  static constexpr size_t MinSlots = 256;

  size_t find(std::string_view Name) const {
    size_t Mask = Slots.size() - 1;
    size_t I = std::hash<std::string_view>()(Name) & Mask;
    while (!Slots[I].Name.empty() && Slots[I].Name != Name)
      I = (I + 1) & Mask;
    return I;
  }

  void grow() {
    std::vector<Slot> Old = std::move(Slots);
    Slots.assign(std::max(MinSlots, 2 * Old.size()), Slot{});
    for (const Slot &S : Old)
      if (!S.Name.empty())
        Slots[find(S.Name)] = S;
  }

  std::vector<Slot> Slots;
  size_t Size = 0;
};

/// The diagnostic for anything but an integer literal in an operand slot
/// that takes only one; nullptr for the other slots.
const char *integerOnly(Opcode Op, unsigned Operand) {
  if (Op == Opcode::Const)
    return "'const' requires an integer literal";
  if (Op == Opcode::Reload)
    return "'reload' requires an integer slot literal";
  if (Op == Opcode::Spill && Operand == 1)
    return "'spill' requires an integer slot literal";
  return nullptr;
}

/// Reads a module in one pass over the text.
class Reader {
public:
  Reader(std::string_view Text, std::string &Error)
      : Cur{Text.data(), Text.data() + Text.size()}, Error(Error) {
    advance();
  }

  std::unique_ptr<Module> run();

private:
  struct PhiArg {
    Operand Value;
    std::string_view PredName;
    unsigned Line;
  };
  struct PendingPhi {
    BasicBlock *Block;
    Variable *Def;
    size_t FirstArg, EndArg; // Range in PhiArgs.
    unsigned Line;
  };
  /// A successor named before its label, settled at the function's '}';
  /// or, when Distinct, a 'cbr' naming one such label twice.
  struct Fixup {
    Instruction *Branch;
    unsigned Succ;
    std::string_view Name;
    unsigned Line;
    bool Distinct;
  };

  void advance() { Tok = Cur.lex(LexFault); }
  bool check(TokenKind K) const { return Tok.Kind == K; }
  bool accept(TokenKind K) {
    if (!check(K))
      return false;
    advance();
    return true;
  }
  bool expect(TokenKind K, const char *What) {
    return accept(K) || fail(std::string("expected ") + What);
  }
  /// Reports \p Message at the line of the current token.
  bool fail(std::string_view Message) { return failAt(Tok.Line, Message); }
  bool failAt(unsigned Line, std::string_view Message) {
    Error = atLine(Line, Message);
    return false;
  }
  bool atLabel() const { return check(TokenKind::Ident) && Cur.colonFollows(); }

  bool parseFunction(Module &M);
  bool parseStatement(Function &F, BasicBlock *B);
  bool parsePhi(Function &F, BasicBlock *B, Variable *Def, unsigned Line);
  bool parseOperand(Function &F, Operand &Out);
  bool parseTarget(std::string_view &Name, BasicBlock *&Out, unsigned Succ);
  bool checkFixup(const Fixup &X, bool Known);
  bool finishFunction(Function &F);
  void rankFault();

  Variable *getVariable(Function &F, std::string_view Name) {
    Variable *&V = Vars[Name];
    if (!V)
      V = F.makeVariable(Name);
    return V;
  }

  Cursor Cur; // Just past Tok.
  Token Tok;
  std::string LexFault;
  std::string &Error;
  NameTable<Variable> Vars;
  NameTable<BasicBlock> Blocks;
  std::vector<Fixup> Fixups;
  std::vector<PendingPhi> Phis;
  std::vector<PhiArg> PhiArgs;
  /// Just past the '{' of the function being read; unset before it.
  std::optional<Cursor> Body;
};

std::unique_ptr<Module> Reader::run() {
  auto M = std::make_unique<Module>();
  while (!check(TokenKind::EndOfFile)) {
    if (!parseFunction(*M)) {
      rankFault();
      return nullptr;
    }
  }
  return M;
}

bool Reader::parseFunction(Module &M) {
  Vars.clear();
  Blocks.clear();
  Fixups.clear();
  Phis.clear();
  PhiArgs.clear();
  Body.reset();

  if (!check(TokenKind::Ident) || Tok.Text != "func")
    return fail("expected 'func'");
  advance();
  if (!check(TokenKind::FuncRef))
    return fail("expected '@name' after 'func'");
  Function *F = M.makeFunction(std::string(Tok.Text));
  advance();

  if (!expect(TokenKind::LParen, "'('"))
    return false;
  if (!check(TokenKind::RParen)) {
    do {
      if (!check(TokenKind::VarRef))
        return fail("expected parameter '%name'");
      std::string_view Name = Tok.Text;
      advance();
      Variable *&V = Vars[Name];
      if (V)
        return fail("duplicate parameter '%" + std::string(Name) + "'");
      F->addParam(V = F->makeVariable(Name));
    } while (accept(TokenKind::Comma));
  }
  if (!expect(TokenKind::RParen, "')'"))
    return false;
  Cursor AfterBrace = Cur;
  if (!expect(TokenKind::LBrace, "'{'"))
    return false;
  Body = AfterBrace;

  if (!atLabel()) // rankFault() tells a body without any label apart.
    return fail("expected block label");
  BasicBlock *B = nullptr;
  while (!check(TokenKind::RBrace)) {
    if (check(TokenKind::EndOfFile))
      return fail("unexpected end of input inside function");
    if (!atLabel()) {
      if (!parseStatement(*F, B))
        return false;
      continue;
    }
    std::string_view Name = Tok.Text;
    unsigned Line = Tok.Line;
    advance();
    advance(); // ':'
    BasicBlock *&Slot = Blocks[Name];
    if (Slot)
      return failAt(Line, "duplicate label '" + std::string(Name) + "'");
    B = Slot = F->makeBlock(Name);
  }
  advance(); // '}'
  return finishFunction(*F);
}

bool Reader::parseOperand(Function &F, Operand &Out) {
  if (check(TokenKind::VarRef))
    Out = Operand::var(getVariable(F, Tok.Text));
  else if (check(TokenKind::Integer))
    Out = Operand::imm(Tok.Value);
  else
    return fail("expected operand ('%name' or integer)");
  advance();
  return true;
}

bool Reader::parseTarget(std::string_view &Name, BasicBlock *&Out,
                         unsigned Succ) {
  if (!check(TokenKind::Ident))
    return fail("expected block label");
  Name = Tok.Text;
  advance();
  Out = Blocks[Name];
  if (!Out) // parseStatement() fills in the branch.
    Fixups.push_back({nullptr, Succ, Name, Tok.Line, false});
  return true;
}

bool Reader::parseStatement(Function &F, BasicBlock *B) {
  unsigned Line = Tok.Line;
  if (B->hasTerminator())
    return fail("statement after terminator in block '" + B->name() + "'");

  Variable *Def = nullptr; // Set for value statements: %d = op ...
  if (check(TokenKind::VarRef)) {
    Def = getVariable(F, Tok.Text);
    advance();
    if (!expect(TokenKind::Equals, "'='"))
      return false;
    if (!check(TokenKind::Ident))
      return fail("expected opcode mnemonic");
  } else if (!check(TokenKind::Ident)) {
    return fail("expected statement");
  }
  std::string_view Mnemonic = Tok.Text;
  advance();
  std::optional<Opcode> Op = mnemonicToOpcode(Mnemonic);
  if (!Op || opcodeHasDef(*Op) != (Def != nullptr))
    return fail((Def ? "unknown value opcode '" : "unknown statement '") +
                std::string(Mnemonic) + "'");
  if (*Op == Opcode::Phi)
    return parsePhi(F, B, Def, Line);

  std::vector<Operand> Ops(opcodeNumOperands(*Op));
  for (unsigned I = 0; I != Ops.size(); ++I) {
    if (I != 0 && !expect(TokenKind::Comma, "','"))
      return false;
    if (*Op == Opcode::Spill && I == 1 && !Ops[0].isVar())
      return fail("'spill' value must be a variable");
    if (const char *Message = integerOnly(*Op, I);
        Message && !check(TokenKind::Integer))
      return fail(Message);
    if (!parseOperand(F, Ops[I]))
      return false;
  }
  if (*Op == Opcode::Copy && !Ops[0].isVar())
    return fail("'copy' source must be a variable (use 'const' for immediates)");

  size_t FirstFixup = Fixups.size();
  std::vector<BasicBlock *> Succs(opcodeNumSuccessors(*Op));
  std::string_view Names[2];
  for (unsigned I = 0; I != Succs.size(); ++I)
    if ((I + Ops.size() != 0 && !expect(TokenKind::Comma, "','")) ||
        !parseTarget(Names[I], Succs[I], I))
      return false;
  if (Succs.size() == 2 && Names[0] == Names[1]) {
    Fixup Twice{nullptr, 0, {}, Line, true};
    if (Succs[0])
      return checkFixup(Twice, true);
    Fixups.push_back(Twice);
  }
  Instruction *I = B->append(std::make_unique<Instruction>(
      *Op, Def, std::move(Ops), std::move(Succs)));
  for (size_t K = FirstFixup; K != Fixups.size(); ++K)
    Fixups[K].Branch = I;
  return true;
}

bool Reader::parsePhi(Function &F, BasicBlock *B, Variable *Def,
                      unsigned Line) {
  PendingPhi P{B, Def, PhiArgs.size(), 0, Line};
  do {
    if (!expect(TokenKind::LBracket, "'['"))
      return false;
    PhiArg Arg{{}, {}, Tok.Line};
    if (!parseOperand(F, Arg.Value) || !expect(TokenKind::Comma, "','"))
      return false;
    if (!check(TokenKind::Ident))
      return fail("expected predecessor label in phi");
    Arg.PredName = Tok.Text;
    advance();
    if (!expect(TokenKind::RBracket, "']'"))
      return false;
    PhiArgs.push_back(Arg);
  } while (accept(TokenKind::Comma));
  P.EndArg = PhiArgs.size();
  Phis.push_back(P);
  return true;
}

/// Fails for a Distinct fixup, and for one whose label is not \p Known.
bool Reader::checkFixup(const Fixup &X, bool Known) {
  if (X.Distinct)
    return failAt(X.Line, "'cbr' successors must be distinct (multi-edges "
                          "would break phi/predecessor alignment)");
  if (!Known)
    return failAt(X.Line, "unknown block label '" + std::string(X.Name) + "'");
  return true;
}

bool Reader::finishFunction(Function &F) {
  for (const Fixup &X : Fixups) {
    BasicBlock *Target = X.Distinct ? nullptr : Blocks[X.Name];
    if (!checkFixup(X, Target))
      return false;
    X.Branch->setSuccessor(X.Succ, Target);
  }
  for (const auto &B : F.blocks())
    if (!B->hasTerminator()) {
      Error = "block '" + B->name() + "' in function '" + F.name() +
              "' lacks a terminator";
      return false;
    }
  F.recomputePreds();

  // Phi operands name their predecessors; store them in predecessor order.
  // Slot[b] is b's index among the preds of the phi's block, Absent when b
  // is not one, Used once an operand named it.
  constexpr unsigned Absent = ~0u, Used = ~1u;
  std::vector<unsigned> Slot(F.numBlocks(), Absent);
  for (const PendingPhi &P : Phis) {
    BasicBlock *B = P.Block;
    size_t NumArgs = P.EndArg - P.FirstArg;
    if (NumArgs != B->getNumPreds())
      return failAt(P.Line, "phi in block '" + B->name() + "' has " +
                                std::to_string(NumArgs) +
                                " incoming values but the block has " +
                                std::to_string(B->getNumPreds()) +
                                " predecessors");
    for (unsigned I = 0; I != B->getNumPreds(); ++I)
      Slot[B->preds()[I]->id()] = I;
    std::vector<Operand> Ordered(NumArgs);
    for (size_t A = P.FirstArg; A != P.EndArg; ++A) {
      const PhiArg &Arg = PhiArgs[A];
      std::string Pred(Arg.PredName);
      BasicBlock *From = Blocks[Arg.PredName];
      if (!From)
        return failAt(Arg.Line, "unknown phi block '" + Pred + "'");
      unsigned &S = Slot[From->id()];
      if (S == Absent)
        return failAt(Arg.Line, "block '" + Pred +
                                    "' is not a predecessor of '" +
                                    B->name() + "'");
      if (S == Used)
        return failAt(Arg.Line, "duplicate phi entry for block '" + Pred + "'");
      Ordered[S] = Arg.Value;
      S = Used;
    }
    for (BasicBlock *Pred : B->preds())
      Slot[Pred->id()] = Absent;
    B->addPhi(std::make_unique<Instruction>(Opcode::Phi, P.Def,
                                            std::move(Ordered)));
  }
  return true;
}

/// Replaces the fault just reported with a higher-ranked one, if the text
/// has one: a lexical fault anywhere; else, inside a function body, a
/// duplicate label, a body without labels, or a branch before the fault
/// that names no label of the function.
void Reader::rankFault() {
  if (check(TokenKind::Fault)) {
    Error = LexFault;
    return;
  }
  std::string Fault;
  for (Cursor C = Cur;;) {
    TokenKind K = C.lex(Fault).Kind;
    if (K == TokenKind::Fault)
      Error = Fault;
    if (K == TokenKind::Fault || K == TokenKind::EndOfFile)
      break;
  }
  if (!Fault.empty() || !Body)
    return;

  // Every name followed by ':' up to the body's closing brace is a label.
  std::unordered_set<std::string_view> Labels;
  Token Prev{TokenKind::EndOfFile, {}, 0, 0};
  unsigned Depth = 1, FirstLine = 0;
  for (Cursor C = *Body;;) {
    Token T = C.lex(Fault);
    FirstLine = FirstLine ? FirstLine : T.Line;
    if (T.Kind == TokenKind::EndOfFile ||
        (T.Kind == TokenKind::RBrace && --Depth == 0))
      break;
    Depth += T.Kind == TokenKind::LBrace;
    if (T.Kind == TokenKind::Colon && Prev.Kind == TokenKind::Ident &&
        !Labels.insert(Prev.Text).second) {
      failAt(Prev.Line, "duplicate label '" + std::string(Prev.Text) + "'");
      return;
    }
    Prev = T;
  }
  if (Labels.empty()) {
    failAt(FirstLine, "function has no blocks");
    return;
  }
  for (const Fixup &X : Fixups)
    if (!checkFixup(X, Labels.count(X.Name)))
      return;
}

} // namespace

std::unique_ptr<Module> fcc::parseModule(std::string_view Text,
                                         std::string &Error) {
  return Reader(Text, Error).run();
}

std::unique_ptr<Module> fcc::parseSingleFunctionOrDie(std::string_view Text) {
  std::string Error;
  std::unique_ptr<Module> M = parseModule(Text, Error);
  if (!M || M->size() != 1) {
    std::fprintf(stderr, "embedded IR is malformed: %s\n",
                 M ? "expected exactly one function" : Error.c_str());
    std::abort();
  }
  return M;
}
