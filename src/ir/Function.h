//===- ir/Function.h - Functions --------------------------------*- C++ -*-===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A function owns its basic blocks and its variable namespace. The first
/// block is the CFG's `start`; the unique block terminated by `ret` is
/// `end` (Definition 1 of the paper). The verifier (ir/Verifier.h) enforces
/// the control-graph well-formedness conditions.
///
//===----------------------------------------------------------------------===//

#ifndef DEPFLOW_IR_FUNCTION_H
#define DEPFLOW_IR_FUNCTION_H

#include "ir/BasicBlock.h"
#include "support/StringInterner.h"

#include <memory>
#include <string>
#include <vector>

namespace depflow {

class Function {
  std::string Name;
  std::vector<std::unique_ptr<BasicBlock>> Blocks;
  StringInterner VarNames;
  std::vector<VarId> Params;

public:
  explicit Function(std::string Name) : Name(std::move(Name)) {}

  const std::string &name() const { return Name; }

  /// Renames the function. Must not be called on a function already owned
  /// by a Module (the module indexes functions by name).
  void setName(std::string NewName) { Name = std::move(NewName); }

  /// Creates a new block appended to the block list. The first block created
  /// becomes the entry.
  BasicBlock *makeBlock(std::string Label);
  /// Reserves room for \p N blocks (the parser knows the count up front).
  void reserveBlocks(unsigned N) { Blocks.reserve(N); }

  /// Interns a variable name, returning its dense id.
  VarId makeVar(std::string_view VarName) { return VarNames.intern(VarName); }
  /// Creates a fresh variable with a unique name derived from \p Hint.
  VarId makeFreshVar(const std::string &Hint);

  unsigned numVars() const { return VarNames.size(); }
  const std::string &varName(VarId V) const { return VarNames.name(V); }
  int lookupVar(std::string_view VarName) const {
    return VarNames.lookup(VarName);
  }

  void addParam(VarId V) { Params.push_back(V); }
  const std::vector<VarId> &params() const { return Params; }

  unsigned numBlocks() const { return unsigned(Blocks.size()); }
  BasicBlock *block(unsigned Id) const {
    assert(Id < Blocks.size() && "block id out of range");
    return Blocks[Id].get();
  }
  const std::vector<std::unique_ptr<BasicBlock>> &blocks() const {
    return Blocks;
  }

  BasicBlock *entry() const {
    return Blocks.empty() ? nullptr : Blocks.front().get();
  }

  /// Returns the unique exit block (the one terminated by ret), or null.
  BasicBlock *exit() const;

  /// Rebuilds every block's predecessor list from the successor lists.
  /// Must be called after any CFG mutation and before using predecessors().
  void recomputePreds();

  /// Erases every block whose id maps to false in \p Keep, renumbering the
  /// survivors densely. The caller must ensure no kept block's terminator
  /// references an erased block. Recomputes predecessors.
  void eraseBlocks(const std::vector<bool> &Keep);

  /// Total number of CFG edges (sum of successor counts).
  unsigned numEdges() const;

  /// Total number of instructions.
  unsigned numInstructions() const;

  /// True if any block holds a phi instruction.
  bool hasPhis() const;
};

} // namespace depflow

#endif // DEPFLOW_IR_FUNCTION_H
