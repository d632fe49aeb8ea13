//===- verify/PassVerifier.h - Post-pass invariant checkers -----*- C++ -*-===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Mechanical checks of the paper's structural theorems, run after a pass
/// (or by the fuzzer on every generated program) to catch miscompiles:
///
///  * `verifySSAForm` — single static definition per variable, definitions
///    dominate uses (phi uses checked at the incoming edge), and pruned
///    placement: no phi whose value never reaches a non-phi use.
///  * `verifyDFGWellFormed` — Theorem 1 / Definition 6 end to end, on
///    both the SESE-bypassed and the no-bypass graph: for every use, the
///    definitions with a dependence path to it are exactly the classic
///    reaching definitions; switch/merge nodes sit only at
///    branch/join blocks with in-range ports; every node reaches a use
///    (the dead-edge-removal invariant); each variable's edges form one
///    contiguous id range that `edgesOfVar` returns exactly (the sparse
///    backward engine and the ANT projection visit only that range); the
///    per-CFG-edge dependence map is consistent with the node table.
///  * `crossCheckCycleEquivalence` — the O(E) bracket-list result equals
///    the naive O(E^2·(N+E)) Definition 7 evaluation on the augmented CFG
///    (validates Claims 1-2 on this exact input).
///  * `crossCheckControlDependence` — the factored CDG agrees edge-by-edge
///    with the postdominator-based FOW baseline.
///
/// All checkers return a Status whose diagnostics are self-contained (they
/// embed the offending program text), and never crash on verified input.
///
//===----------------------------------------------------------------------===//

#ifndef DEPFLOW_VERIFY_PASSVERIFIER_H
#define DEPFLOW_VERIFY_PASSVERIFIER_H

#include "ir/Function.h"
#include "support/Error.h"

namespace depflow {

/// Knobs for verifyPassInvariants.
struct VerifyOptions {
  /// Require SSA form (run after an SSA construction pass).
  bool ExpectSSA = false;
  /// Cross-check cycle equivalence and control dependence against the
  /// naive references. Quadratic-plus; gated by MaxCrossCheckEdges.
  bool CrossCheckStructure = true;
  /// Check DFG well-formedness (skipped automatically when F has phis,
  /// since the DFG is defined over phi-free IR).
  bool CheckDFG = true;
  /// Skip the brute-force references above this many CFG edges.
  unsigned MaxCrossCheckEdges = 600;
};

/// SSA invariants: at most one defining instruction per variable, defs
/// dominate every use, and every phi feeds (transitively) a non-phi use.
/// Requires \p F to pass verifyFunction.
Status verifySSAForm(Function &F);

/// Theorem 1 checks on a freshly built DFG of \p F (phi-free input only;
/// returns an error status if \p F contains phis).
Status verifyDFGWellFormed(Function &F);

/// Fast cycle equivalence vs. Definition 7 brute force on the augmented
/// CFG (including the virtual end->start edge's class).
Status crossCheckCycleEquivalence(Function &F);

/// Factored CDG (cycle-equivalence classes) vs. the per-edge FOW baseline.
Status crossCheckControlDependence(Function &F);

/// Composite: base IR verifier plus the checks selected by \p Opts. This is
/// what depflow-opt's --verify-each and the fuzzer run between passes.
Status verifyPassInvariants(Function &F, const VerifyOptions &Opts = {});

} // namespace depflow

#endif // DEPFLOW_VERIFY_PASSVERIFIER_H
