//===- dataflow/ConstantPropagation.h - Constant propagation ----*- C++ -*-===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Conditional constant propagation with dead code detection, in the three
/// forms Section 4 of the paper compares:
///
///   * `EvalMode::SparseDFG`      — per-dependence-edge values on the DFG
///     (Figure 4b), via `SparseEngine`; O(E·V) time.
///   * `EvalMode::DenseCFG`       — Kildall vectors on CFG edges with
///     executability tracking (Figure 4a), via `DenseEngine`; O(E·V^2)
///     time, O(E·V) space. Finds exactly the same constants.
///   * `defUseConstantPropagation`— the classic def-use chain algorithm
///     [ASU86]; finds only *all-paths* constants (Figure 3a), missing the
///     possible-paths constants of Figure 3b. Kept outside the engine as
///     the paper's point of comparison.
///
/// Evaluation semantics (consistent with the interpreter): variables are 0
/// at entry, parameters and read() are ⊤.
///
/// All variants report one lattice value per *use*; ⊥ means the use is in
/// dead code.
///
//===----------------------------------------------------------------------===//

#ifndef DEPFLOW_DATAFLOW_CONSTANTPROPAGATION_H
#define DEPFLOW_DATAFLOW_CONSTANTPROPAGATION_H

#include "core/DepFlowGraph.h"
#include "dataflow/Lattice.h"
#include "dataflow/SparseEngine.h"
#include "ir/Function.h"

#include <vector>

namespace depflow {

class ReachingDefs;

struct ConstPropResult : DataflowResult<ConstVal> {
  /// Number of uses whose value is a constant.
  unsigned numConstantUses() const;
  /// Number of variable uses whose value is a constant (immediates are
  /// trivially constant and excluded).
  unsigned numConstantVarUses() const;
};

/// Conditional constant propagation through the sparse engine. \p Mode
/// selects the DFG token evaluation (Figure 4b; \p G required) or the
/// dense CFG vector evaluation (Figure 4a; \p G ignored). With
/// \p PredicateRefinement, a branch whose condition is `x == c` (defined
/// in the branch's own block) propagates x = c along its true side, and
/// `x != c` along its false side — the Multiflow extension Section 4
/// describes. The paper notes this extension is easy for both the CFG and
/// DFG algorithms but hard for SSA-based ones, since SSA edges bypass the
/// switches.
Status runConstantPropagation(Function &F, const DepFlowGraph *G,
                              EvalMode Mode, ConstPropResult &Out,
                              bool PredicateRefinement = false);

/// The def-use chain algorithm (no executability tracking).
ConstPropResult defUseConstantPropagation(Function &F,
                                          const ReachingDefs &RD);

/// What applyConstantsAndDCE changed.
struct ConstantsApplied {
  unsigned OperandsFolded = 0; // Variable uses rewritten to immediates.
  bool CFGChanged = false;     // A branch folded or a block erased.
  bool DefsRemoved = false;    // A dead definition erased.
};

/// Applies a constant propagation result: rewrites constant variable uses
/// to immediates, simplifies branches whose condition became constant,
/// removes unreachable blocks, and erases definitions that are dead (never
/// executable or never used). The function verifies afterwards.
ConstantsApplied applyConstantsAndDCE(Function &F, const ConstPropResult &CP);

} // namespace depflow

#endif // DEPFLOW_DATAFLOW_CONSTANTPROPAGATION_H
