//===- ir/Module.cpp - Modules --------------------------------------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "ir/Module.h"

using namespace depflow;

Status Module::addFunction(std::unique_ptr<Function> F) {
  assert(F && "null function");
  auto [It, Inserted] = IndexOf.try_emplace(F->name(), unsigned(Funcs.size()));
  (void)It;
  if (!Inserted)
    return Status::error("duplicate function '" + F->name() + "'");
  Funcs.push_back(std::move(F));
  return Status::success();
}

Status Module::replaceFunction(unsigned I, std::unique_ptr<Function> F) {
  if (I >= Funcs.size())
    return Status::error("replaceFunction: index out of range");
  if (!F)
    return Status::error("replaceFunction: null function");
  if (F->name() != Funcs[I]->name())
    return Status::error("replaceFunction: replacement must keep the name '" +
                         Funcs[I]->name() + "' (got '" + F->name() + "')");
  Funcs[I] = std::move(F);
  return Status::success();
}

Function *Module::lookup(std::string_view FnName) const {
  auto It = IndexOf.find(FnName);
  return It == IndexOf.end() ? nullptr : Funcs[It->second].get();
}

unsigned Module::numBlocks() const {
  unsigned N = 0;
  for (const auto &F : Funcs)
    N += F->numBlocks();
  return N;
}

unsigned Module::numInstructions() const {
  unsigned N = 0;
  for (const auto &F : Funcs)
    N += F->numInstructions();
  return N;
}
