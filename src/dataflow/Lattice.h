//===- dataflow/Lattice.h - Dataflow value lattices -------------*- C++ -*-===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The value lattices of every SparseEngine client, under one uniform
/// vocabulary: `bottom()` ("never examined — dead code"), `top()` ("no
/// information"), `meet()` (the confluence operator; these are all
/// may-analyses, so meet is the lattice join), and `equal()`. Each lattice
/// ships with an `eval*Definition` transfer template shared by the sparse
/// (DFG) and dense (CFG) evaluation modes, so the two can never disagree
/// on arithmetic:
///
///  * `ConstVal`    — Kildall's three-level constant lattice (Section 4).
///  * `IntervalVal` — integer ranges `[Lo, Hi]` with bounds on a fixed
///    finite ladder (so chains are finite and the engines terminate
///    without a separate widening phase).
///  * `TaintVal`    — Bot < Clean < Tainted; `read()` and parameters are
///    the taint sources.
///  * `InitVal`     — may-be-initialized / may-be-uninitialized bits for
///    null/undef-use detection.
///
//===----------------------------------------------------------------------===//

#ifndef DEPFLOW_DATAFLOW_LATTICE_H
#define DEPFLOW_DATAFLOW_LATTICE_H

#include "ir/Instruction.h"

#include <cstdint>
#include <string>

namespace depflow {

class ConstVal {
public:
  enum class Kind : std::uint8_t { Bot, Const, Top };

private:
  Kind K = Kind::Bot;
  std::int64_t V = 0;

public:
  ConstVal() = default;

  static ConstVal bottom() { return ConstVal(); }
  static ConstVal top() {
    ConstVal C;
    C.K = Kind::Top;
    return C;
  }
  static ConstVal cst(std::int64_t Value) {
    ConstVal C;
    C.K = Kind::Const;
    C.V = Value;
    return C;
  }

  bool isBot() const { return K == Kind::Bot; }
  bool isTop() const { return K == Kind::Top; }
  bool isConst() const { return K == Kind::Const; }
  std::int64_t value() const {
    assert(isConst() && "value() on a non-constant lattice element");
    return V;
  }

  /// True if this may be a nonzero (taken) branch condition.
  bool mayBeTrue() const { return isTop() || (isConst() && V != 0); }
  /// True if this may be a zero (fall-through) branch condition.
  bool mayBeFalse() const { return isTop() || (isConst() && V == 0); }

  /// Confluence (least upper bound — these are may-analyses).
  ConstVal meet(ConstVal O) const {
    if (isBot())
      return O;
    if (O.isBot())
      return *this;
    if (isTop() || O.isTop())
      return top();
    return V == O.V ? *this : top();
  }

  static bool equal(const ConstVal &A, const ConstVal &B) {
    return A == B;
  }

  bool operator==(const ConstVal &O) const {
    return K == O.K && (K != Kind::Const || V == O.V);
  }
  bool operator!=(const ConstVal &O) const { return !(*this == O); }

  std::string str() const {
    if (isBot())
      return "_|_";
    if (isTop())
      return "T";
    return std::to_string(V);
  }
};

/// Transfer function for a definition's right-hand side, shared by every
/// constant propagation variant. \p GetOperand supplies lattice values for
/// operands (immediates are folded here). \p Executable is the control
/// input: when false the instruction is dead and produces ⊥.
template <typename GetOperandFn>
ConstVal evalDefinition(const DefInst &I, GetOperandFn GetOperand,
                        bool Executable = true) {
  if (!Executable)
    return ConstVal::bottom();
  auto Val = [&](const Operand &Op) {
    return Op.isImm() ? ConstVal::cst(Op.imm()) : GetOperand(Op);
  };
  switch (I.kind()) {
  case Instruction::Kind::Copy:
    return Val(cast<CopyInst>(&I)->src());
  case Instruction::Kind::Read:
  case Instruction::Kind::Call: // Callee result is opaque intraprocedurally.
    return ConstVal::top();
  case Instruction::Kind::Unary: {
    ConstVal A = Val(cast<UnaryInst>(&I)->src());
    if (A.isBot() || A.isTop())
      return A;
    return ConstVal::cst(evalUnOp(cast<UnaryInst>(&I)->op(), A.value()));
  }
  case Instruction::Kind::Binary: {
    const auto *B = cast<BinaryInst>(&I);
    ConstVal A = Val(B->lhs());
    ConstVal C = Val(B->rhs());
    // The paper's rule: ⊥ wins over ⊤ (an unexamined operand keeps the
    // result unexamined), then ⊤, then folding.
    if (A.isBot() || C.isBot())
      return ConstVal::bottom();
    if (A.isTop() || C.isTop())
      return ConstVal::top();
    return ConstVal::cst(evalBinOp(B->op(), A.value(), C.value()));
  }
  default:
    depflow_unreachable("evalDefinition on a non-RHS instruction");
  }
}

//===----------------------------------------------------------------------===//
// IntervalVal: integer ranges on a finite bound ladder
//===----------------------------------------------------------------------===//

class IntervalVal {
  bool Live = false;            // false = ⊥
  std::int64_t LoB = 0, HiB = 0; // valid only when Live

  IntervalVal(std::int64_t Lo, std::int64_t Hi)
      : Live(true), LoB(Lo), HiB(Hi) {}

public:
  /// INT64_MIN / INT64_MAX double as -∞ / +∞ bounds.
  static constexpr std::int64_t NegInf = INT64_MIN;
  static constexpr std::int64_t PosInf = INT64_MAX;

  IntervalVal() = default;

  static IntervalVal bottom() { return IntervalVal(); }
  static IntervalVal top() { return IntervalVal(NegInf, PosInf); }
  /// An exact singleton: points are not rounded to the ladder.
  static IntervalVal point(std::int64_t V) { return IntervalVal(V, V); }
  /// A range with both bounds rounded outward to the ladder (the widening
  /// that keeps lattice chains finite).
  static IntervalVal range(std::int64_t Lo, std::int64_t Hi);

  bool isBottom() const { return !Live; }
  bool isPoint() const { return Live && LoB == HiB; }
  bool isTop() const { return Live && LoB == NegInf && HiB == PosInf; }
  std::int64_t lo() const {
    assert(Live && "lo() on bottom");
    return LoB;
  }
  std::int64_t hi() const {
    assert(Live && "hi() on bottom");
    return HiB;
  }
  /// Both bounds finite (the property the range pass counts).
  bool isBounded() const { return Live && LoB != NegInf && HiB != PosInf; }

  bool mayBeTrue() const { return Live && !(LoB == 0 && HiB == 0); }
  bool mayBeFalse() const { return Live && LoB <= 0 && 0 <= HiB; }

  /// Confluence: the interval hull, rounded outward to the ladder unless
  /// one side absorbs the other exactly.
  IntervalVal meet(const IntervalVal &O) const;

  static bool equal(const IntervalVal &A, const IntervalVal &B) {
    if (A.Live != B.Live)
      return false;
    return !A.Live || (A.LoB == B.LoB && A.HiB == B.HiB);
  }
  bool operator==(const IntervalVal &O) const { return equal(*this, O); }
  bool operator!=(const IntervalVal &O) const { return !equal(*this, O); }

  /// True when every concrete value of this interval lies inside \p O.
  bool containedIn(const IntervalVal &O) const {
    if (isBottom())
      return true;
    return O.Live && O.LoB <= LoB && HiB <= O.HiB;
  }

  std::string str() const;
};

/// Interval arithmetic for the IR's operators; sound over the interpreter
/// semantics (x/0 == 0, comparisons yield 0/1). Point×point folds through
/// evalBinOp/evalUnOp exactly, so the range analysis agrees with constant
/// propagation on constant code.
IntervalVal rangeBinOp(BinOp Op, const IntervalVal &A, const IntervalVal &B);
IntervalVal rangeUnOp(UnOp Op, const IntervalVal &A);

template <typename GetOperandFn>
IntervalVal evalRangeDefinition(const DefInst &I, GetOperandFn GetOperand,
                                bool Executable = true) {
  if (!Executable)
    return IntervalVal::bottom();
  auto Val = [&](const Operand &Op) {
    return Op.isImm() ? IntervalVal::point(Op.imm()) : GetOperand(Op);
  };
  switch (I.kind()) {
  case Instruction::Kind::Copy:
    return Val(cast<CopyInst>(&I)->src());
  case Instruction::Kind::Read:
  case Instruction::Kind::Call: // Callee result is opaque intraprocedurally.
    return IntervalVal::top();
  case Instruction::Kind::Unary: {
    IntervalVal A = Val(cast<UnaryInst>(&I)->src());
    if (A.isBottom())
      return A;
    return rangeUnOp(cast<UnaryInst>(&I)->op(), A);
  }
  case Instruction::Kind::Binary: {
    const auto *B = cast<BinaryInst>(&I);
    IntervalVal A = Val(B->lhs());
    IntervalVal C = Val(B->rhs());
    // ⊥ wins: an unexamined operand keeps the result unexamined.
    if (A.isBottom() || C.isBottom())
      return IntervalVal::bottom();
    return rangeBinOp(B->op(), A, C);
  }
  default:
    depflow_unreachable("evalRangeDefinition on a non-RHS instruction");
  }
}

//===----------------------------------------------------------------------===//
// TaintVal: source/sink reachability
//===----------------------------------------------------------------------===//

class TaintVal {
public:
  enum class Kind : std::uint8_t { Bot, Clean, Tainted };

private:
  Kind K = Kind::Bot;

  explicit TaintVal(Kind K) : K(K) {}

public:
  TaintVal() = default;

  static TaintVal bottom() { return TaintVal(); }
  static TaintVal clean() { return TaintVal(Kind::Clean); }
  static TaintVal tainted() { return TaintVal(Kind::Tainted); }
  /// Top of this may-lattice: "may carry external input".
  static TaintVal top() { return tainted(); }

  bool isBottom() const { return K == Kind::Bot; }
  bool isTainted() const { return K == Kind::Tainted; }

  /// Taint says nothing about a predicate's truth value.
  bool mayBeTrue() const { return K != Kind::Bot; }
  bool mayBeFalse() const { return K != Kind::Bot; }

  TaintVal meet(const TaintVal &O) const {
    return TaintVal(K > O.K ? K : O.K);
  }

  static bool equal(const TaintVal &A, const TaintVal &B) {
    return A.K == B.K;
  }
  bool operator==(const TaintVal &O) const { return K == O.K; }
  bool operator!=(const TaintVal &O) const { return K != O.K; }

  std::string str() const {
    switch (K) {
    case Kind::Bot:
      return "_|_";
    case Kind::Clean:
      return "clean";
    case Kind::Tainted:
      return "tainted";
    }
    return "?";
  }
};

template <typename GetOperandFn>
TaintVal evalTaintDefinition(const DefInst &I, GetOperandFn GetOperand,
                             bool Executable = true) {
  if (!Executable)
    return TaintVal::bottom();
  auto Val = [&](const Operand &Op) {
    return Op.isImm() ? TaintVal::clean() : GetOperand(Op);
  };
  switch (I.kind()) {
  case Instruction::Kind::Copy:
    return Val(cast<CopyInst>(&I)->src());
  case Instruction::Kind::Read:
  case Instruction::Kind::Call: // May observe read() inside the callee.
    return TaintVal::tainted(); // The IR's source of external input.
  case Instruction::Kind::Unary:
    return Val(cast<UnaryInst>(&I)->src());
  case Instruction::Kind::Binary: {
    const auto *B = cast<BinaryInst>(&I);
    TaintVal A = Val(B->lhs());
    TaintVal C = Val(B->rhs());
    if (A.isBottom() || C.isBottom())
      return TaintVal::bottom(); // ⊥ wins, as in constant propagation.
    return A.meet(C);            // Taint infects every derived value.
  }
  default:
    depflow_unreachable("evalTaintDefinition on a non-RHS instruction");
  }
}

//===----------------------------------------------------------------------===//
// InitVal: may-be-initialized / may-be-uninitialized
//===----------------------------------------------------------------------===//

class InitVal {
  // Bit 0: may carry a value some executed definition assigned.
  // Bit 1: may still carry the variable's implicit (never-assigned) zero.
  std::uint8_t Bits = 0; // 0 = ⊥

  explicit InitVal(std::uint8_t Bits) : Bits(Bits) {}

public:
  InitVal() = default;

  static InitVal bottom() { return InitVal(); }
  static InitVal init() { return InitVal(1); }
  static InitVal uninit() { return InitVal(2); }
  static InitVal top() { return InitVal(3); }

  bool isBottom() const { return Bits == 0; }
  bool mayBeInit() const { return (Bits & 1) != 0; }
  bool mayBeUninit() const { return (Bits & 2) != 0; }

  /// Initialization state says nothing about a predicate's truth value.
  bool mayBeTrue() const { return Bits != 0; }
  bool mayBeFalse() const { return Bits != 0; }

  InitVal meet(const InitVal &O) const {
    return InitVal(std::uint8_t(Bits | O.Bits));
  }

  static bool equal(const InitVal &A, const InitVal &B) {
    return A.Bits == B.Bits;
  }
  bool operator==(const InitVal &O) const { return Bits == O.Bits; }
  bool operator!=(const InitVal &O) const { return Bits != O.Bits; }

  std::string str() const {
    switch (Bits) {
    case 0:
      return "_|_";
    case 1:
      return "init";
    case 2:
      return "uninit";
    default:
      return "maybe-uninit";
    }
  }
};

template <typename GetOperandFn>
InitVal evalInitDefinition(const DefInst &I, GetOperandFn GetOperand,
                           bool Executable = true) {
  if (!Executable)
    return InitVal::bottom();
  // Any executed definition initializes its target; operand values matter
  // only for the ⊥ (dead operand ⇒ dead result) rule.
  auto Val = [&](const Operand &Op) {
    return Op.isImm() ? InitVal::init() : GetOperand(Op);
  };
  switch (I.kind()) {
  case Instruction::Kind::Copy:
    return Val(cast<CopyInst>(&I)->src()).isBottom() ? InitVal::bottom()
                                                     : InitVal::init();
  case Instruction::Kind::Read:
  case Instruction::Kind::Call: // Always yields a value (0 if no ret operand).
    return InitVal::init();
  case Instruction::Kind::Unary:
    return Val(cast<UnaryInst>(&I)->src()).isBottom() ? InitVal::bottom()
                                                      : InitVal::init();
  case Instruction::Kind::Binary: {
    const auto *B = cast<BinaryInst>(&I);
    if (Val(B->lhs()).isBottom() || Val(B->rhs()).isBottom())
      return InitVal::bottom();
    return InitVal::init();
  }
  default:
    depflow_unreachable("evalInitDefinition on a non-RHS instruction");
  }
}

} // namespace depflow

#endif // DEPFLOW_DATAFLOW_LATTICE_H
