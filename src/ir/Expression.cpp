//===- ir/Expression.cpp - Syntactic expression identity ------------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "ir/Expression.h"

#include "ir/Printer.h"

using namespace depflow;

std::string depflow::printExpression(const Function &F, const Expression &E) {
  std::string S;
  appendOperand(F, E.Lhs, S);
  S += ' ';
  S += binOpName(E.Op);
  S += ' ';
  appendOperand(F, E.Rhs, S);
  return S;
}
