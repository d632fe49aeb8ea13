//===- ir/Printer.h - Textual IR printing -----------------------*- C++ -*-===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Prints functions in the textual syntax accepted by ir/Parser.h, so that
/// print(parse(S)) round-trips.
///
//===----------------------------------------------------------------------===//

#ifndef DEPFLOW_IR_PRINTER_H
#define DEPFLOW_IR_PRINTER_H

#include "ir/Module.h"

#include <string>

namespace depflow {

/// Appends \p Op in source syntax (a variable name or integer literal) to
/// \p Out.
void appendOperand(const Function &F, const Operand &Op, std::string &Out);

/// Appends a single instruction (without trailing newline) to \p Out. All
/// textual printing below goes through this one append path.
void appendInstruction(const Function &F, const Instruction &I,
                       std::string &Out);

/// Renders \p Op in source syntax (a variable name or integer literal).
std::string printOperand(const Function &F, const Operand &Op);

/// Renders a single instruction (without trailing newline).
std::string printInstruction(const Function &F, const Instruction &I);

/// Renders the whole function.
std::string printFunction(const Function &F);

/// Renders every function in textual order, separated by blank lines. A
/// one-function module prints exactly like printFunction, so depflow-opt's
/// output is unchanged for single-function inputs.
std::string printModule(const Module &M);

/// Renders the CFG in GraphViz form: one box per block with its
/// instructions, one edge per successor (depflow-opt's --dot-cfg and the
/// pipeline's --dot-after-all).
std::string printCFGDot(const Function &F);

} // namespace depflow

#endif // DEPFLOW_IR_PRINTER_H
