//===- ir/Expression.h - Syntactic expression identity ----------*- C++ -*-===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The identity of a binary expression such as `a + b`, independent of
/// which variable receives it. Anticipatability, availability, and partial
/// redundancy elimination (Section 5 of the paper) are all "per expression"
/// analyses; the interpreter also counts dynamic evaluations per expression
/// so tests can check that EPR never adds computations to any path.
///
//===----------------------------------------------------------------------===//

#ifndef DEPFLOW_IR_EXPRESSION_H
#define DEPFLOW_IR_EXPRESSION_H

#include "ir/Instruction.h"

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <tuple>

namespace depflow {

class Function;

/// The variables an expression reads: at most two, held inline, so asking
/// for them allocates nothing. Iterates like a container and converts to a
/// span.
class ExprVars {
  VarId Vars[2] = {};
  std::uint8_t Count = 0;

public:
  void push_back(VarId V) { Vars[Count++] = V; }
  const VarId *begin() const { return Vars; }
  const VarId *end() const { return Vars + Count; }
  std::size_t size() const { return Count; }
  bool empty() const { return Count == 0; }
  operator std::span<const VarId>() const { return {Vars, Count}; }
};

/// A syntactic binary expression: op, left operand, right operand.
struct Expression {
  BinOp Op{};
  Operand Lhs;
  Operand Rhs;

  bool operator==(const Expression &E) const {
    return Op == E.Op && Lhs == E.Lhs && Rhs == E.Rhs;
  }

  bool operator<(const Expression &E) const {
    auto Key = [](const Expression &X) {
      auto OpKey = [](const Operand &O) {
        return std::tuple(unsigned(O.kind()), O.isVar() ? std::int64_t(O.var())
                          : O.isImm()                   ? O.imm()
                                                        : 0);
      };
      return std::tuple(unsigned(X.Op), OpKey(X.Lhs), OpKey(X.Rhs));
    };
    return Key(*this) < Key(E);
  }

  /// Variables the expression reads (0, 1, or 2 entries, deduplicated).
  ExprVars variables() const {
    ExprVars Vs;
    if (Lhs.isVar())
      Vs.push_back(Lhs.var());
    if (Rhs.isVar() && !(Lhs.isVar() && Lhs.var() == Rhs.var()))
      Vs.push_back(Rhs.var());
    return Vs;
  }

  bool uses(VarId V) const {
    return (Lhs.isVar() && Lhs.var() == V) || (Rhs.isVar() && Rhs.var() == V);
  }
};

/// The expression computed by \p I, if it is a binary instruction.
inline std::optional<Expression> expressionOf(const Instruction &I) {
  if (const auto *B = dyn_cast<BinaryInst>(&I))
    return Expression{B->op(), B->lhs(), B->rhs()};
  return std::nullopt;
}

/// Renders e.g. "v0 + v1" (requires the owning function for names).
std::string printExpression(const Function &F, const Expression &E);

} // namespace depflow

#endif // DEPFLOW_IR_EXPRESSION_H
