//===- pass/Pass.h - Pass identities and options ----------------*- C++ -*-===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The registry of the transformation passes depflow exposes: stable ids,
/// command-line names, and the per-pass options block. Lives in the pass
/// library so the pipeline, the analysis manager, the verification shims,
/// and the tools all agree on what the pass name `pre` means.
///
//===----------------------------------------------------------------------===//

#ifndef DEPFLOW_PASS_PASS_H
#define DEPFLOW_PASS_PASS_H

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace depflow {

enum class PassId : std::uint8_t {
  Separate,     // separateComputation normalization
  ConstProp,    // DFG conditional constant propagation + DCE
  ConstPropCFG, // same via the CFG algorithm (Figure 4a)
  PRE,          // Morel-Renvoise over every expression (DFG ANT engine)
  PREBusy,      // busy code motion instead
  Range,        // report-only integer range analysis (sparse engine)
  Taint,        // report-only tainted-flow analysis (sparse engine)
  NullUse,      // report-only undef-use detection (sparse engine)
  SSA,          // pruned SSA via Cytron placement
  SSADfg,       // pruned SSA via the DFG route
};

/// All passes, in the order the `known passes:` diagnostic lists them.
const std::vector<PassId> &allPasses();

/// Command-line name ("constprop", "ssa-dfg", ...).
const char *passName(PassId P);
std::optional<PassId> passByName(std::string_view Name);

/// True if the pass leaves the function in SSA form.
bool passProducesSSA(PassId P);

struct PassOptions {
  /// Enable the x==c predicate refinement during constant propagation.
  bool Predicates = false;
};

} // namespace depflow

#endif // DEPFLOW_PASS_PASS_H
