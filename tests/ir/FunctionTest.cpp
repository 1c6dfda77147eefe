//===- tests/ir/FunctionTest.cpp ------------------------------------------===//

#include "ir/Function.h"

#include <gtest/gtest.h>

using namespace fcc;

TEST(FunctionTest, VariableIdsAreDense) {
  Function F("f");
  Variable *A = F.makeVariable("a");
  Variable *B = F.makeVariable("b");
  EXPECT_EQ(A->id(), 0u);
  EXPECT_EQ(B->id(), 1u);
  EXPECT_EQ(F.numVariables(), 2u);
  EXPECT_EQ(F.variable(0), A);
  EXPECT_EQ(F.variable(1), B);
}

TEST(FunctionTest, OriginChainTracksSSAVersions) {
  Function F("f");
  Variable *X = F.makeVariable("x");
  Variable *X1 = F.makeVariable("x.1", X);
  Variable *X2 = F.makeVariable("x.2", X1);
  EXPECT_EQ(X->origin(), nullptr);
  EXPECT_EQ(X1->origin(), X);
  EXPECT_EQ(X2->rootOrigin(), X);
  EXPECT_EQ(X->rootOrigin(), X);
}

TEST(FunctionTest, FirstBlockIsEntry) {
  Function F("f");
  BasicBlock *E = F.makeBlock("entry");
  BasicBlock *B = F.makeBlock("other");
  EXPECT_EQ(F.entry(), E);
  EXPECT_EQ(F.numBlocks(), 2u);
  EXPECT_EQ(F.block(1), B);
}

TEST(FunctionTest, FindByName) {
  Function F("f");
  F.makeBlock("entry");
  BasicBlock *B = F.makeBlock("loop");
  Variable *V = F.makeVariable("i");
  EXPECT_EQ(F.findBlock("loop"), B);
  EXPECT_EQ(F.findBlock("nope"), nullptr);
  EXPECT_EQ(F.findVariable("i"), V);
  EXPECT_EQ(F.findVariable("nope"), nullptr);
}

TEST(FunctionTest, ParamsAreTracked) {
  Function F("f");
  Variable *A = F.makeVariable("a");
  Variable *B = F.makeVariable("b");
  F.addParam(A);
  EXPECT_TRUE(F.isParam(A));
  EXPECT_FALSE(F.isParam(B));
  EXPECT_EQ(F.params().size(), 1u);
}

TEST(FunctionTest, RecomputePredsFollowsTerminators) {
  Function F("f");
  BasicBlock *E = F.makeBlock("entry");
  BasicBlock *L = F.makeBlock("left");
  BasicBlock *R = F.makeBlock("right");
  BasicBlock *J = F.makeBlock("join");
  Variable *C = F.makeVariable("c");
  E->append(std::make_unique<Instruction>(Opcode::Const, C,
                                          std::vector<Operand>{Operand::imm(1)}));
  E->append(std::make_unique<Instruction>(
      Opcode::CondBr, nullptr, std::vector<Operand>{Operand::var(C)},
      std::vector<BasicBlock *>{L, R}));
  L->append(std::make_unique<Instruction>(Opcode::Br, nullptr,
                                          std::vector<Operand>{},
                                          std::vector<BasicBlock *>{J}));
  R->append(std::make_unique<Instruction>(Opcode::Br, nullptr,
                                          std::vector<Operand>{},
                                          std::vector<BasicBlock *>{J}));
  J->append(std::make_unique<Instruction>(Opcode::Ret, nullptr,
                                          std::vector<Operand>{Operand::imm(0)}));
  F.recomputePreds();
  EXPECT_EQ(J->getNumPreds(), 2u);
  EXPECT_EQ(J->predIndex(L), 0u);
  EXPECT_EQ(J->predIndex(R), 1u);
  EXPECT_TRUE(E->preds().empty());
}

TEST(FunctionTest, CountsCoverPhisAndCopies) {
  Function F("f");
  BasicBlock *E = F.makeBlock("entry");
  Variable *A = F.makeVariable("a");
  Variable *B = F.makeVariable("b");
  E->append(std::make_unique<Instruction>(Opcode::Const, A,
                                          std::vector<Operand>{Operand::imm(3)}));
  E->append(std::make_unique<Instruction>(Opcode::Copy, B,
                                          std::vector<Operand>{Operand::var(A)}));
  E->append(std::make_unique<Instruction>(Opcode::Ret, nullptr,
                                          std::vector<Operand>{Operand::var(B)}));
  EXPECT_EQ(F.instructionCount(), 3u);
  EXPECT_EQ(F.staticCopyCount(), 1u);
  EXPECT_EQ(F.phiCount(), 0u);
}

TEST(FunctionTest, BlockInsertionHelpers) {
  Function F("f");
  BasicBlock *E = F.makeBlock("entry");
  Variable *A = F.makeVariable("a");
  Variable *B = F.makeVariable("b");
  E->append(std::make_unique<Instruction>(Opcode::Const, A,
                                          std::vector<Operand>{Operand::imm(1)}));
  E->append(std::make_unique<Instruction>(Opcode::Ret, nullptr,
                                          std::vector<Operand>{Operand::var(A)}));
  E->insertBeforeTerminator(std::make_unique<Instruction>(
      Opcode::Copy, B, std::vector<Operand>{Operand::var(A)}));
  ASSERT_EQ(E->insts().size(), 3u);
  EXPECT_TRUE(E->insts()[1]->isCopy());
  EXPECT_TRUE(E->insts()[2]->isTerminator());

  Variable *C = F.makeVariable("c");
  E->insertAt(0, std::make_unique<Instruction>(
                     Opcode::Const, C, std::vector<Operand>{Operand::imm(9)}));
  EXPECT_EQ(E->insts()[0]->getDef(), C);
}

TEST(FunctionTest, BatchInsertionMatchesInsertAtOneByOne) {
  // Body: const a, const b, ret a. Insert at the front, twice before
  // position 2 (the terminator) and once before position 1.
  auto MakeBlock = [](Function &F) {
    BasicBlock *E = F.makeBlock("entry");
    Variable *A = F.makeVariable("a");
    E->append(std::make_unique<Instruction>(
        Opcode::Const, A, std::vector<Operand>{Operand::imm(1)}));
    E->append(std::make_unique<Instruction>(
        Opcode::Const, F.makeVariable("b"),
        std::vector<Operand>{Operand::imm(2)}));
    E->append(std::make_unique<Instruction>(
        Opcode::Ret, nullptr, std::vector<Operand>{Operand::var(A)}));
    return E;
  };
  auto Imm = [](int64_t V) {
    return std::make_unique<Instruction>(Opcode::Const, nullptr,
                                         std::vector<Operand>{Operand::imm(V)});
  };
  auto Immediates = [](const BasicBlock &B) {
    std::vector<int64_t> Out;
    for (const auto &I : B.insts())
      Out.push_back(I->getNumOperands() && I->getOperand(0).isImm()
                        ? I->getOperand(0).getImm()
                        : -1);
    return Out;
  };

  Function Batched("f");
  BasicBlock *B = MakeBlock(Batched);
  std::vector<std::pair<unsigned, std::unique_ptr<Instruction>>> Batch;
  Batch.emplace_back(0, Imm(10));
  Batch.emplace_back(1, Imm(11));
  Batch.emplace_back(2, Imm(12));
  Batch.emplace_back(2, Imm(13));
  B->insertInsts(std::move(Batch));

  Function OneByOne("f");
  BasicBlock *O = MakeBlock(OneByOne);
  O->insertAt(2, Imm(12));
  O->insertAt(3, Imm(13));
  O->insertAt(1, Imm(11));
  O->insertAt(0, Imm(10));

  EXPECT_EQ(Immediates(*B), Immediates(*O));
  EXPECT_EQ(Immediates(*B),
            (std::vector<int64_t>{10, 1, 11, 2, 12, 13, -1}));
  for (const auto &I : B->insts())
    EXPECT_EQ(I->getParent(), B);
  EXPECT_TRUE(B->insts().back()->isTerminator());
}

TEST(FunctionTest, TakePhisTransfersOwnership) {
  Function F("f");
  BasicBlock *E = F.makeBlock("entry");
  BasicBlock *B = F.makeBlock("b");
  Variable *X = F.makeVariable("x");
  E->append(std::make_unique<Instruction>(Opcode::Br, nullptr,
                                          std::vector<Operand>{},
                                          std::vector<BasicBlock *>{B}));
  F.recomputePreds();
  B->addPhi(std::make_unique<Instruction>(Opcode::Phi, X,
                                          std::vector<Operand>{Operand::imm(0)}));
  auto Phis = B->takePhis();
  EXPECT_EQ(Phis.size(), 1u);
  EXPECT_TRUE(B->phis().empty());
}
