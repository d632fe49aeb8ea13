//===- ir/Module.h - Modules ------------------------------------*- C++ -*-===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A module is an ordered list of uniquely named functions — the unit the
/// whole-program drivers (depflow-opt, the parallel pass-pipeline driver,
/// the benches) operate on. The paper's algorithms are all per-function;
/// the module exists so many functions can be parsed from one `.df` file
/// and processed as a batch, in parallel, without any cross-function
/// state. Function order is the textual order, and every driver commits
/// results in that order so output is independent of scheduling.
///
//===----------------------------------------------------------------------===//

#ifndef DEPFLOW_IR_MODULE_H
#define DEPFLOW_IR_MODULE_H

#include "ir/Function.h"
#include "support/Error.h"

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace depflow {

class Module {
  std::string Name;
  std::vector<std::unique_ptr<Function>> Funcs;
  StringMap<unsigned> IndexOf;

public:
  explicit Module(std::string Name = "module") : Name(std::move(Name)) {}

  const std::string &name() const { return Name; }

  /// Appends \p F. Fails (module unchanged) when a function of the same
  /// name is already present. The function's name must not change after
  /// insertion (the index maps names to positions).
  Status addFunction(std::unique_ptr<Function> F);

  unsigned numFunctions() const { return unsigned(Funcs.size()); }
  bool empty() const { return Funcs.empty(); }

  Function *function(unsigned I) const {
    assert(I < Funcs.size() && "function index out of range");
    return Funcs[I].get();
  }
  const std::vector<std::unique_ptr<Function>> &functions() const {
    return Funcs;
  }

  /// Returns the function named \p FnName, or null.
  Function *lookup(std::string_view FnName) const;

  /// Replaces the function at position \p I with \p F, which must carry
  /// the same name (positions and the name index stay valid). The module
  /// pipeline's --keep-going path uses this to put a failed function's
  /// original text back; distinct positions can be replaced concurrently
  /// (each slot is owned by exactly one task).
  Status replaceFunction(unsigned I, std::unique_ptr<Function> F);

  /// Totals over every function (bench reporting).
  unsigned numBlocks() const;
  unsigned numInstructions() const;
};

} // namespace depflow

#endif // DEPFLOW_IR_MODULE_H
