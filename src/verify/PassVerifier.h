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
///    per-CFG-edge dependence map is consistent with the node table; and,
///    on the SESE graph, a region assigning X in no reachable block whose
///    exit edge carries X carries it from its entry edge's source (the
///    ANT projection inherits exit values through such regions).
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
#include "pass/Pass.h"
#include "support/Error.h"

namespace depflow {

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

/// Composite, for the output of pass \p P: the base IR verifier, SSA form
/// when \p P produces SSA, DFG well-formedness on phi-free IR, and the
/// brute-force structure cross-checks on functions of at most
/// \p MaxCrossCheckEdges CFG edges. This is what depflow-opt's
/// --verify-each runs after every pass, and the first stage of
/// checkPassOutput (verify/Oracles.h).
Status verifyPassInvariants(Function &F, PassId P,
                            unsigned MaxCrossCheckEdges = 600);

} // namespace depflow

#endif // DEPFLOW_VERIFY_PASSVERIFIER_H
