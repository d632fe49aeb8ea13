//===- ir/Instruction.h - Instruction class hierarchy -----------*- C++ -*-===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The instruction hierarchy for depflow's small imperative IR. The paper's
/// "assignment statement nodes" map to the definition instructions here;
/// its switch and merge nodes correspond at the CFG level to conditional
/// branches and join blocks (see ir/BasicBlock.h).
///
/// Instructions:
///   definitions:  x = op   | x = -op | x = a <binop> b | x = read()
///                 | x = call f(ops...) | phi
///   terminators:  goto B   | if c goto T else F        | ret ops...
///
//===----------------------------------------------------------------------===//

#ifndef DEPFLOW_IR_INSTRUCTION_H
#define DEPFLOW_IR_INSTRUCTION_H

#include "ir/Operand.h"
#include "support/Casting.h"
#include "support/InlineList.h"

#include <cstdint>
#include <span>
#include <string>

namespace depflow {

class BasicBlock;

/// Unary operators.
enum class UnOp : std::uint8_t { Neg, Not };

/// Binary operators. Comparison/logical operators yield 0 or 1.
enum class BinOp : std::uint8_t {
  Add,
  Sub,
  Mul,
  Div, // Division by zero is defined to yield 0 (keeps evaluation total).
  Eq,
  Ne,
  Lt,
  Le,
  Gt,
  Ge,
  And, // Logical: nonzero operands count as true.
  Or,
};

const char *binOpName(BinOp Op);
const char *unOpName(UnOp Op);

/// Evaluates \p Op on two concrete values (shared by the interpreter and
/// constant folding so they can never disagree).
std::int64_t evalBinOp(BinOp Op, std::int64_t A, std::int64_t B);
std::int64_t evalUnOp(UnOp Op, std::int64_t A);

/// Base class of all instructions.
///
/// Storage for operands and block references lives here so that generic
/// passes can walk every use without dispatching on the concrete kind.
class Instruction {
public:
  enum class Kind : std::uint8_t {
    // Definitions (have a destination variable).
    Copy,
    Unary,
    Binary,
    Read,
    Call,
    Phi,
    // Terminators.
    Jump,
    CondBr,
    Ret,
  };

private:
  Kind K;
  BasicBlock *Parent = nullptr;
  unsigned Line = 0; // 1-based source line (0 = synthesized, no source).

protected:
  // Every kind but a call, a ret and a phi has at most two operands and two
  // block references, so those kinds never touch the heap for them.
  InlineList<Operand, 2> Ops;
  /// Jump/CondBr: successor targets. Phi: incoming predecessor blocks
  /// (parallel to Ops).
  InlineList<BasicBlock *, 2> Blocks;

  explicit Instruction(Kind K) : K(K) {}

public:
  virtual ~Instruction() = default;
  Instruction(const Instruction &) = delete;
  Instruction &operator=(const Instruction &) = delete;

  Kind kind() const { return K; }
  BasicBlock *parent() const { return Parent; }
  void setParent(BasicBlock *BB) { Parent = BB; }

  /// Source line the parser read this instruction from, or 0 when the
  /// instruction was synthesized by a pass. Slicing criteria
  /// (`--slice func:line`) resolve against this.
  unsigned line() const { return Line; }
  void setLine(unsigned L) { Line = L; }

  bool isTerminator() const { return K >= Kind::Jump; }
  bool isDefinition() const { return K <= Kind::Phi; }

  unsigned numOperands() const { return Ops.size(); }
  const Operand &operand(unsigned Idx) const {
    assert(Idx < Ops.size() && "operand index out of range");
    return Ops[Idx];
  }
  void setOperand(unsigned Idx, Operand O) {
    assert(Idx < Ops.size() && "operand index out of range");
    Ops[Idx] = O;
  }
  /// The operands in order. Valid until the operand list grows (only a
  /// phi's addIncoming does that).
  std::span<const Operand> operands() const { return Ops.span(); }

  /// The block references in order, with the same lifetime as operands().
  std::span<BasicBlock *const> blockRefs() const { return Blocks.span(); }
  void replaceBlockRef(BasicBlock *Old, BasicBlock *New) {
    for (BasicBlock *&B : Blocks.span())
      if (B == Old)
        B = New;
  }
};

/// An instruction that defines (assigns) a variable.
class DefInst : public Instruction {
  VarId Def;

protected:
  DefInst(Kind K, VarId Def) : Instruction(K), Def(Def) {}

public:
  VarId def() const { return Def; }
  void setDef(VarId V) { Def = V; }

  static bool classof(const Instruction *I) {
    return I->kind() <= Kind::Phi;
  }
};

/// x = y  or  x = 5
class CopyInst : public DefInst {
public:
  CopyInst(VarId Def, Operand Src) : DefInst(Kind::Copy, Def) {
    Ops.push_back(Src);
  }
  const Operand &src() const { return Ops[0]; }
  static bool classof(const Instruction *I) { return I->kind() == Kind::Copy; }
};

/// x = -y  or  x = !y
class UnaryInst : public DefInst {
  UnOp Op;

public:
  UnaryInst(VarId Def, UnOp Op, Operand Src) : DefInst(Kind::Unary, Def), Op(Op) {
    Ops.push_back(Src);
  }
  UnOp op() const { return Op; }
  const Operand &src() const { return Ops[0]; }
  static bool classof(const Instruction *I) { return I->kind() == Kind::Unary; }
};

/// x = a <op> b
class BinaryInst : public DefInst {
  BinOp Op;

public:
  BinaryInst(VarId Def, BinOp Op, Operand A, Operand B)
      : DefInst(Kind::Binary, Def), Op(Op) {
    Ops.push_back(A);
    Ops.push_back(B);
  }
  BinOp op() const { return Op; }
  const Operand &lhs() const { return Ops[0]; }
  const Operand &rhs() const { return Ops[1]; }
  static bool classof(const Instruction *I) {
    return I->kind() == Kind::Binary;
  }
};

/// x = read() — consumes the next external input value. Reads are the IR's
/// source of statically unknown values.
class ReadInst : public DefInst {
public:
  explicit ReadInst(VarId Def) : DefInst(Kind::Read, Def) {}
  static bool classof(const Instruction *I) { return I->kind() == Kind::Read; }
};

/// x = call f(a, b, ...) — invokes function `f` from the enclosing module
/// with the listed arguments; the call's value is the callee's first
/// returned operand (0 when the callee returns nothing, matching the IR's
/// implicit-zero philosophy). The callee is referenced *by name*: a lone
/// function can be parsed, printed, and cloned without its module, and
/// resolution (callee exists, arity matches) is checked at module level.
/// Calls also thread the shared input stream: a `read()` in the callee
/// consumes the same stream as the caller, which is why the SDG models an
/// io pseudo-state through call sites (docs/SDG.md).
class CallInst : public DefInst {
  std::string Callee;

public:
  CallInst(VarId Def, std::string Callee, std::span<const Operand> Args)
      : DefInst(Kind::Call, Def), Callee(std::move(Callee)) {
    Ops.assign(Args);
  }
  const std::string &callee() const { return Callee; }
  unsigned numArgs() const { return numOperands(); }
  const Operand &arg(unsigned Idx) const { return operand(Idx); }
  static bool classof(const Instruction *I) { return I->kind() == Kind::Call; }
};

/// SSA phi: x = phi(B1: v1, B2: v2, ...). Only present after an SSA
/// construction pass; the base IR is not in SSA form.
class PhiInst : public DefInst {
public:
  explicit PhiInst(VarId Def) : DefInst(Kind::Phi, Def) {}

  unsigned numIncoming() const { return Ops.size(); }
  void addIncoming(BasicBlock *Pred, Operand Value) {
    Blocks.push_back(Pred);
    Ops.push_back(Value);
  }
  BasicBlock *incomingBlock(unsigned Idx) const {
    assert(Idx < Blocks.size() && "phi incoming index out of range");
    return Blocks[Idx];
  }
  const Operand &incomingValue(unsigned Idx) const { return Ops[Idx]; }
  void setIncomingValue(unsigned Idx, Operand O) { Ops[Idx] = O; }

  static bool classof(const Instruction *I) { return I->kind() == Kind::Phi; }
};

/// goto B
class JumpInst : public Instruction {
public:
  explicit JumpInst(BasicBlock *Target) : Instruction(Kind::Jump) {
    Blocks.push_back(Target);
  }
  BasicBlock *target() const { return Blocks[0]; }
  static bool classof(const Instruction *I) { return I->kind() == Kind::Jump; }
};

/// if c goto T else F — the paper's "switch" node. Nonzero is true.
class CondBrInst : public Instruction {
public:
  CondBrInst(Operand Cond, BasicBlock *TrueTarget, BasicBlock *FalseTarget)
      : Instruction(Kind::CondBr) {
    Ops.push_back(Cond);
    Blocks.push_back(TrueTarget);
    Blocks.push_back(FalseTarget);
  }
  const Operand &cond() const { return Ops[0]; }
  BasicBlock *trueTarget() const { return Blocks[0]; }
  BasicBlock *falseTarget() const { return Blocks[1]; }
  static bool classof(const Instruction *I) {
    return I->kind() == Kind::CondBr;
  }
};

/// ret v1, v2, ... — terminates the unique exit block; the listed operands
/// are the program's observable outputs.
class RetInst : public Instruction {
public:
  explicit RetInst(std::span<const Operand> Outputs) : Instruction(Kind::Ret) {
    Ops.assign(Outputs);
  }
  static bool classof(const Instruction *I) { return I->kind() == Kind::Ret; }
};

} // namespace depflow

#endif // DEPFLOW_IR_INSTRUCTION_H
