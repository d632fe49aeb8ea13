//===- pass/Pass.cpp - Pass identities and options ------------------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "pass/Pass.h"

using namespace depflow;

const std::vector<PassId> &depflow::allPasses() {
  // This order is the `known passes:` list of an unknown-pass diagnostic
  // (docs/TOOLS.md's pass table mirrors it) and depflow-fuzz's default
  // pass order (a seed's output depends on it); keep it stable.
  static const std::vector<PassId> Passes = {
      PassId::Separate, PassId::ConstProp, PassId::ConstPropCFG,
      PassId::PRE,      PassId::PREBusy,   PassId::Range,
      PassId::Taint,    PassId::NullUse,   PassId::SSA,
      PassId::SSADfg,
  };
  return Passes;
}

const char *depflow::passName(PassId P) {
  switch (P) {
  case PassId::Separate:
    return "separate";
  case PassId::ConstProp:
    return "constprop";
  case PassId::ConstPropCFG:
    return "constprop-cfg";
  case PassId::PRE:
    return "pre";
  case PassId::PREBusy:
    return "pre-busy";
  case PassId::Range:
    return "range";
  case PassId::Taint:
    return "taint";
  case PassId::NullUse:
    return "nulluse";
  case PassId::SSA:
    return "ssa";
  case PassId::SSADfg:
    return "ssa-dfg";
  }
  return "<unknown>";
}

std::optional<PassId> depflow::passByName(std::string_view Name) {
  for (PassId P : allPasses())
    if (Name == passName(P))
      return P;
  return std::nullopt;
}

bool depflow::passProducesSSA(PassId P) {
  return P == PassId::SSA || P == PassId::SSADfg;
}
