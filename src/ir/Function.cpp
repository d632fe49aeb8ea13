//===- ir/Function.cpp - Function implementation --------------------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "ir/Function.h"

using namespace depflow;

BasicBlock *Function::makeBlock(std::string Label) {
  unsigned Id = unsigned(Blocks.size());
  Blocks.push_back(
      std::unique_ptr<BasicBlock>(new BasicBlock(this, Id, std::move(Label))));
  return Blocks.back().get();
}

VarId Function::makeFreshVar(const std::string &Hint) {
  std::string Candidate = Hint;
  unsigned Suffix = 0;
  while (VarNames.lookup(Candidate) >= 0)
    Candidate = Hint + "." + std::to_string(Suffix++);
  return VarNames.intern(Candidate);
}

BasicBlock *Function::exit() const {
  BasicBlock *Exit = nullptr;
  for (const auto &BB : Blocks) {
    Instruction *Term = BB->terminator();
    if (Term && isa<RetInst>(Term)) {
      if (Exit)
        return nullptr; // Not unique.
      Exit = BB.get();
    }
  }
  return Exit;
}

void Function::recomputePreds() {
  for (const auto &BB : Blocks)
    BB->Preds.clear();
  for (const auto &BB : Blocks)
    for (BasicBlock *Succ : BB->successors())
      Succ->Preds.push_back(BB.get());
}

void Function::eraseBlocks(const std::vector<bool> &Keep) {
  assert(Keep.size() >= Blocks.size() && "Keep vector too small");
  std::vector<std::unique_ptr<BasicBlock>> Kept;
  for (auto &BB : Blocks) {
    if (!Keep[BB->id()])
      continue;
    BB->Id = unsigned(Kept.size());
    Kept.push_back(std::move(BB));
  }
  Blocks = std::move(Kept);
  recomputePreds();
}

unsigned Function::numEdges() const {
  unsigned N = 0;
  for (const auto &BB : Blocks)
    N += BB->numSuccessors();
  return N;
}

unsigned Function::numInstructions() const {
  unsigned N = 0;
  for (const auto &BB : Blocks)
    N += unsigned(BB->size());
  return N;
}

bool Function::hasPhis() const {
  for (const auto &BB : Blocks)
    for (const auto &I : BB->instructions())
      if (isa<PhiInst>(I.get()))
        return true;
  return false;
}

int depflow::canonicalRow(const Instruction *I,
                          std::span<const std::uint32_t> BlockFirst,
                          std::span<const Instruction *const> Instrs) {
  const BasicBlock *BB = I->parent();
  if (!BB || BB->id() >= BlockFirst.size())
    return -1;
  const int Pos = BB->indexOf(I);
  if (Pos < 0)
    return -1;
  const std::size_t Row = BlockFirst[BB->id()] + std::size_t(Pos);
  return Row < Instrs.size() && Instrs[Row] == I ? int(Row) : -1;
}
