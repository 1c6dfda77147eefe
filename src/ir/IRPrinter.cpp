//===- ir/IRPrinter.cpp ---------------------------------------------------===//

#include "ir/IRPrinter.h"

#include "ir/BasicBlock.h"
#include "ir/Function.h"
#include "ir/Module.h"
#include "ir/Variable.h"

#include <charconv>

using namespace fcc;

namespace {

void printOperand(std::string &Out, const Operand &O) {
  if (O.isVar()) {
    Out += '%';
    Out += O.getVar()->name();
    return;
  }
  char Buf[24]; // Enough for any int64_t.
  Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), O.getImm()).ptr);
}

/// Appends \p I (no trailing newline) to \p Out.
void appendInstruction(std::string &Out, const Instruction &I) {
  if (Variable *Def = I.getDef()) {
    Out += '%';
    Out += Def->name();
    Out += " = ";
  }
  Out += opcodeName(I.opcode());

  if (I.isPhi()) {
    const BasicBlock *B = I.getParent();
    for (unsigned Idx = 0, E = I.getNumOperands(); Idx != E; ++Idx) {
      Out += Idx == 0 ? " [" : ", [";
      printOperand(Out, I.getOperand(Idx));
      Out += ", ";
      assert(B && Idx < B->getNumPreds() && "phi/pred mismatch while printing");
      Out += B->preds()[Idx]->name();
      Out += ']';
    }
    return;
  }

  bool First = true;
  for (const Operand &O : I.operands()) {
    Out += First ? " " : ", ";
    First = false;
    printOperand(Out, O);
  }
  for (const BasicBlock *S : I.successors()) {
    Out += First ? " " : ", ";
    First = false;
    Out += S->name();
  }
}

void appendFunction(std::string &Out, const Function &F) {
  Out += "func @";
  Out += F.name();
  Out += '(';
  bool First = true;
  for (const Variable *P : F.params()) {
    if (!First)
      Out += ", ";
    First = false;
    Out += '%';
    Out += P->name();
  }
  Out += ") {\n";
  for (const auto &B : F.blocks()) {
    Out += B->name();
    Out += ":\n";
    for (const auto *List : {&B->phis(), &B->insts()})
      for (const auto &I : *List) {
        Out += "  ";
        appendInstruction(Out, *I);
        Out += '\n';
      }
  }
  Out += "}\n";
}

} // namespace

std::string fcc::printInstruction(const Instruction &I) {
  std::string Out;
  appendInstruction(Out, I);
  return Out;
}

std::string fcc::printFunction(const Function &F) {
  std::string Out;
  appendFunction(Out, F);
  return Out;
}

std::string fcc::printModule(const Module &M) {
  std::string Out;
  for (const auto &F : M.functions()) {
    appendFunction(Out, *F);
    Out += '\n';
  }
  return Out;
}
