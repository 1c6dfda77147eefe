//===- ir/BasicBlock.cpp --------------------------------------------------===//

#include "ir/BasicBlock.h"

#include <algorithm>

using namespace fcc;

Instruction *BasicBlock::append(std::unique_ptr<Instruction> I) {
  assert(!hasTerminator() && "appending past the terminator");
  assert(!I->isPhi() && "phis go through addPhi()");
  I->Parent = this;
  Insts.push_back(std::move(I));
  return Insts.back().get();
}

Instruction *BasicBlock::addPhi(std::unique_ptr<Instruction> I) {
  assert(I->isPhi() && "addPhi() requires a phi");
  I->Parent = this;
  Phis.push_back(std::move(I));
  return Phis.back().get();
}

Instruction *BasicBlock::insertBeforeTerminator(std::unique_ptr<Instruction> I) {
  assert(hasTerminator() && "no terminator to insert before");
  assert(!I->isTerminator() && !I->isPhi() && "bad insertion");
  I->Parent = this;
  Insts.insert(Insts.end() - 1, std::move(I));
  return (Insts.end() - 2)->get();
}

Instruction *BasicBlock::insertAt(unsigned Index,
                                  std::unique_ptr<Instruction> I) {
  assert(Index <= Insts.size() && "insertion index out of range");
  assert(!I->isTerminator() && !I->isPhi() && "bad insertion");
  I->Parent = this;
  auto It = Insts.insert(Insts.begin() + Index, std::move(I));
  return It->get();
}

void BasicBlock::insertInsts(
    std::vector<std::pair<unsigned, std::unique_ptr<Instruction>>> Batch) {
  if (Batch.empty())
    return;
  [[maybe_unused]] const bool Terminated = hasTerminator();
  std::vector<std::unique_ptr<Instruction>> Body;
  Body.reserve(Insts.size() + Batch.size());
  size_t Next = 0;
  for (size_t Pos = 0, E = Insts.size(); Pos <= E; ++Pos) {
    for (; Next != Batch.size() && Batch[Next].first == Pos; ++Next) {
      std::unique_ptr<Instruction> &I = Batch[Next].second;
      assert(!I->isTerminator() && !I->isPhi() && "bad insertion");
      assert((Pos != E || !Terminated) && "inserting past the terminator");
      I->Parent = this;
      Body.push_back(std::move(I));
    }
    if (Pos != E)
      Body.push_back(std::move(Insts[Pos]));
  }
  assert(Next == Batch.size() && "batch positions out of range or unsorted");
  Insts = std::move(Body);
}

void BasicBlock::erasePhi(Instruction *I) {
  auto It = std::find_if(Phis.begin(), Phis.end(),
                         [&](const auto &P) { return P.get() == I; });
  assert(It != Phis.end() && "phi not in this block");
  Phis.erase(It);
}

void BasicBlock::eraseInst(Instruction *I) {
  auto It = std::find_if(Insts.begin(), Insts.end(),
                         [&](const auto &P) { return P.get() == I; });
  assert(It != Insts.end() && "instruction not in this block");
  Insts.erase(It);
}

void BasicBlock::eraseInsts(std::span<Instruction *const> Doomed) {
  size_t Next = 0, Out = 0;
  for (size_t In = 0, E = Insts.size(); In != E; ++In) {
    if (Next != Doomed.size() && Insts[In].get() == Doomed[Next]) {
      ++Next; // Freed when a survivor moves over it, or by the resize.
      continue;
    }
    if (Out != In)
      Insts[Out] = std::move(Insts[In]);
    ++Out;
  }
  assert(Next == Doomed.size() &&
         "instructions not in this block, or not in block order");
  Insts.resize(Out);
}

std::unique_ptr<Instruction> BasicBlock::takeInst(Instruction *I) {
  assert(!I->isTerminator() && "terminators cannot be detached");
  auto It = std::find_if(Insts.begin(), Insts.end(),
                         [&](const auto &P) { return P.get() == I; });
  assert(It != Insts.end() && "instruction not in this block");
  std::unique_ptr<Instruction> Out = std::move(*It);
  Insts.erase(It);
  Out->Parent = nullptr;
  return Out;
}

std::vector<std::unique_ptr<Instruction>> BasicBlock::takePhis() {
  return std::move(Phis);
}

unsigned BasicBlock::predIndex(const BasicBlock *P) const {
  for (unsigned I = 0, E = getNumPreds(); I != E; ++I)
    if (Preds[I] == P)
      return I;
  assert(false && "block is not a predecessor");
  return ~0u;
}

void BasicBlock::replacePred(BasicBlock *Old, BasicBlock *New) {
  unsigned Idx = predIndex(Old);
  Preds[Idx] = New;
}

void BasicBlock::removePredEdge(const BasicBlock *P) {
  unsigned Slot = predIndex(P);
  for (const auto &Phi : Phis)
    Phi->removePhiOperand(Slot);
  Preds.erase(Preds.begin() + Slot);
}
