//===- ir/BasicBlock.cpp - Basic block implementation ---------------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "ir/BasicBlock.h"

using namespace depflow;

Instruction *BasicBlock::insert(std::unique_ptr<Instruction> I) {
  assert(!I->isTerminator() && "use setTerminator for terminators");
  I->setParent(this);
  Instruction *Raw = I.get();
  if (terminator())
    Insts.insert(Insts.end() - 1, std::move(I));
  else
    Insts.push_back(std::move(I));
  return Raw;
}

Instruction *BasicBlock::setTerminator(std::unique_ptr<Instruction> I) {
  assert(I->isTerminator() && "setTerminator requires a terminator");
  assert(!terminator() && "block already has a terminator");
  I->setParent(this);
  Instruction *Raw = I.get();
  Insts.push_back(std::move(I));
  return Raw;
}

void BasicBlock::clearTerminator() {
  if (terminator())
    Insts.pop_back();
}

void BasicBlock::removeInstruction(unsigned Idx) {
  assert(Idx < Insts.size() && "instruction index out of range");
  Insts.erase(Insts.begin() + Idx);
}

void BasicBlock::replaceInstruction(unsigned Idx,
                                    std::unique_ptr<Instruction> NewInst) {
  assert(Idx < Insts.size() && "instruction index out of range");
  NewInst->setParent(this);
  Insts[Idx] = std::move(NewInst);
}

Instruction *BasicBlock::insertAt(unsigned Idx,
                                  std::unique_ptr<Instruction> I) {
  assert(Idx <= Insts.size() && "insertion index out of range");
  I->setParent(this);
  Instruction *Raw = I.get();
  Insts.insert(Insts.begin() + Idx, std::move(I));
  return Raw;
}

int BasicBlock::indexOf(const Instruction *I) const {
  for (unsigned Idx = 0, E = unsigned(Insts.size()); Idx != E; ++Idx)
    if (Insts[Idx].get() == I)
      return int(Idx);
  return -1;
}

CopyInst *BasicBlock::appendCopy(VarId Def, Operand Src) {
  return static_cast<CopyInst *>(insert(std::make_unique<CopyInst>(Def, Src)));
}

UnaryInst *BasicBlock::appendUnary(VarId Def, UnOp Op, Operand Src) {
  return static_cast<UnaryInst *>(
      insert(std::make_unique<UnaryInst>(Def, Op, Src)));
}

BinaryInst *BasicBlock::appendBinary(VarId Def, BinOp Op, Operand A,
                                     Operand B) {
  return static_cast<BinaryInst *>(
      insert(std::make_unique<BinaryInst>(Def, Op, A, B)));
}

ReadInst *BasicBlock::appendRead(VarId Def) {
  return static_cast<ReadInst *>(insert(std::make_unique<ReadInst>(Def)));
}

CallInst *BasicBlock::appendCall(VarId Def, std::string Callee,
                                 std::span<const Operand> Args) {
  return static_cast<CallInst *>(
      insert(std::make_unique<CallInst>(Def, std::move(Callee), Args)));
}

PhiInst *BasicBlock::appendPhi(VarId Def) {
  auto Phi = std::make_unique<PhiInst>(Def);
  Phi->setParent(this);
  PhiInst *Raw = Phi.get();
  // Phis live at the head of the block, before any non-phi instruction.
  unsigned Idx = 0;
  while (Idx < Insts.size() && isa<PhiInst>(Insts[Idx].get()))
    ++Idx;
  Insts.insert(Insts.begin() + Idx, std::move(Phi));
  return Raw;
}

JumpInst *BasicBlock::setJump(BasicBlock *Target) {
  return static_cast<JumpInst *>(
      setTerminator(std::make_unique<JumpInst>(Target)));
}

CondBrInst *BasicBlock::setCondBr(Operand Cond, BasicBlock *TrueTarget,
                                  BasicBlock *FalseTarget) {
  return static_cast<CondBrInst *>(setTerminator(
      std::make_unique<CondBrInst>(Cond, TrueTarget, FalseTarget)));
}

RetInst *BasicBlock::setRet(std::span<const Operand> Outputs) {
  return static_cast<RetInst *>(
      setTerminator(std::make_unique<RetInst>(Outputs)));
}
