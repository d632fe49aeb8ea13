//===- ir/BasicBlock.h - Basic blocks ---------------------------*- C++ -*-===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A basic block: a label, a straight-line list of definition instructions,
/// and one terminator. In the paper's node vocabulary, a block with a
/// conditional branch ends in a *switch*, and a block with multiple
/// predecessors begins with a *merge*; all dependence routing in src/core
/// uses that reading of the block-level CFG.
///
//===----------------------------------------------------------------------===//

#ifndef DEPFLOW_IR_BASICBLOCK_H
#define DEPFLOW_IR_BASICBLOCK_H

#include "ir/Instruction.h"

#include <memory>
#include <span>
#include <string>
#include <vector>

namespace depflow {

class Function;

class BasicBlock {
  friend class Function;

  Function *Parent = nullptr;
  unsigned Id = 0;
  std::string Label;
  std::vector<std::unique_ptr<Instruction>> Insts;
  InlineList<BasicBlock *, 2> Preds; // Kept by Function::recomputePreds().

  /// Most blocks hold a few instructions; reserving room for four up front
  /// spares them the vector's regrowth.
  static constexpr unsigned InitialInsts = 4;

  BasicBlock(Function *Parent, unsigned Id, std::string Label)
      : Parent(Parent), Id(Id), Label(std::move(Label)) {
    Insts.reserve(InitialInsts);
  }

public:
  BasicBlock(const BasicBlock &) = delete;
  BasicBlock &operator=(const BasicBlock &) = delete;

  Function *parent() const { return Parent; }
  unsigned id() const { return Id; }
  const std::string &label() const { return Label; }

  /// All instructions including the terminator.
  const std::vector<std::unique_ptr<Instruction>> &instructions() const {
    return Insts;
  }
  bool empty() const { return Insts.empty(); }
  std::size_t size() const { return Insts.size(); }

  Instruction *terminator() const {
    if (Insts.empty() || !Insts.back()->isTerminator())
      return nullptr;
    return Insts.back().get();
  }

  /// Appends \p I before the terminator if one exists, else at the end.
  Instruction *insert(std::unique_ptr<Instruction> I);

  /// Appends a terminator; asserts the block has none yet.
  Instruction *setTerminator(std::unique_ptr<Instruction> I);

  /// Removes and destroys the current terminator (if any).
  void clearTerminator();

  /// Removes instruction at position \p Idx (not the terminator slot check —
  /// callers may remove any instruction).
  void removeInstruction(unsigned Idx);

  /// Replaces the instruction at \p Idx with \p NewInst.
  void replaceInstruction(unsigned Idx, std::unique_ptr<Instruction> NewInst);

  /// Inserts \p I at position \p Idx (before the instruction currently
  /// there).
  Instruction *insertAt(unsigned Idx, std::unique_ptr<Instruction> I);

  /// Returns the position of \p I within this block, or -1.
  int indexOf(const Instruction *I) const;

  // Convenience builders (all return the created instruction).
  CopyInst *appendCopy(VarId Def, Operand Src);
  UnaryInst *appendUnary(VarId Def, UnOp Op, Operand Src);
  BinaryInst *appendBinary(VarId Def, BinOp Op, Operand A, Operand B);
  ReadInst *appendRead(VarId Def);
  CallInst *appendCall(VarId Def, std::string Callee,
                       std::span<const Operand> Args);
  PhiInst *appendPhi(VarId Def); // Prepended before non-phi instructions.
  JumpInst *setJump(BasicBlock *Target);
  CondBrInst *setCondBr(Operand Cond, BasicBlock *TrueTarget,
                        BasicBlock *FalseTarget);
  RetInst *setRet(std::span<const Operand> Outputs);

  /// Successor blocks in branch order: the terminator's block references
  /// (goto: the target; if: true then false target), or an empty span if
  /// there is no terminator or it is a ret. The span views the terminator's
  /// inline storage, so it stays valid until the block's terminator
  /// changes; a caller that retargets, replaces, or clears the terminator
  /// while iterating must copy the list first.
  std::span<BasicBlock *const> successors() const {
    // A terminator's block references are exactly its successors in order
    // (a ret holds none); only the phi, a non-terminator, uses them for
    // something else.
    Instruction *Term = terminator();
    return Term ? Term->blockRefs() : std::span<BasicBlock *const>();
  }
  unsigned numSuccessors() const { return unsigned(successors().size()); }

  /// Predecessor blocks, in the order recomputePreds() found them. The span
  /// is valid until the next recomputePreds().
  std::span<BasicBlock *const> predecessors() const { return Preds.span(); }
  unsigned numPredecessors() const { return unsigned(Preds.size()); }

  /// True if control can branch here (the block ends in a switch node).
  bool isSwitch() const { return numSuccessors() > 1; }
  /// True if control merges here (the block begins with a merge node).
  bool isMerge() const { return numPredecessors() > 1; }
};

} // namespace depflow

#endif // DEPFLOW_IR_BASICBLOCK_H
