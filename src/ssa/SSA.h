//===- ssa/SSA.h - SSA construction (Cytron and DFG-derived) ----*- C++ -*-===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Two ways to reach SSA form:
///
///  * `cytronPhiPlacement` — the baseline: iterated dominance frontiers of
///    each variable's definition blocks [Cytron et al. 1989/1991], with
///    optional pruning by liveness. One walk over the function collects
///    every variable's definition blocks.
///  * `dfgPhiPlacement` — the paper's O(EV) route (Section 3.3): the DFG's
///    surviving merges, with switches elided, are the φ-functions. It reads
///    them off the DFG's routing plan (`DFGPlan`) without materializing the
///    graph: per variable, one walk over its rows in RPO records the value
///    reaching each live merge input (a block's last def, a merge, or the
///    entry; uses and switches are transparent, and a bypassed region exit
///    carries its entry edge's value). A collapse then removes merges whose
///    inputs all carry one value (the trivial φs that base-level joins
///    inside def-free regions would otherwise produce).
///
/// `applySSA` then inserts φs and renames via the standard dominator-tree
/// walk. Variables start at 0 at entry, so the original variable name keeps
/// serving as the entry definition and uses before any def stay correct.
///
//===----------------------------------------------------------------------===//

#ifndef DEPFLOW_SSA_SSA_H
#define DEPFLOW_SSA_SSA_H

#include "core/DepFlowGraph.h"
#include "graph/Dominators.h"
#include "ir/Function.h"

#include <span>
#include <utility>
#include <vector>

namespace depflow {

/// Per block id, the variables that need a φ at the block's head, each
/// list ascending: one CSR over all blocks.
class PhiPlacement {
  std::vector<std::uint32_t> Off; // numBlocks() + 1 offsets into Vars
  std::vector<VarId> Vars;

public:
  /// The placement of the (block, variable) pairs \p Phis, listed in
  /// ascending variable order, over \p NumBlocks blocks.
  PhiPlacement(unsigned NumBlocks,
               std::span<const std::pair<unsigned, VarId>> Phis);

  unsigned numBlocks() const { return unsigned(Off.size()) - 1; }
  std::size_t numPhis() const { return Vars.size(); }
  /// The variables with a φ at block \p B, ascending.
  std::span<const VarId> operator[](unsigned B) const {
    return {Vars.data() + Off[B], Vars.data() + Off[B + 1]};
  }
  bool contains(unsigned B, VarId V) const;
  bool operator==(const PhiPlacement &) const = default;
};

/// IDF-based placement. With \p Pruned, φs are only placed where the
/// variable is live-in.
PhiPlacement cytronPhiPlacement(Function &F, bool Pruned);

/// Same, reusing a caller-provided dominator tree of F's CFG (the analysis
/// manager's cache) instead of rebuilding one.
PhiPlacement cytronPhiPlacement(Function &F, bool Pruned, const DomTree &DT);

/// DFG-derived placement: the merges of data variables that survive the
/// trivial-φ collapse, read off the routing plan of \p Plan's function.
PhiPlacement dfgPhiPlacement(const DFGPlan &Plan);

/// Same, planning the SESE-bypassed DFG of \p F from scratch (edge
/// numbering, cycle equivalence and the PST included).
PhiPlacement dfgPhiPlacement(Function &F);

/// Inserts φs per \p Placement and renames the function into SSA form.
/// Returns, for every variable id of the renamed function, the original
/// variable it stems from (identity for the pre-existing ids).
std::vector<VarId> applySSA(Function &F, const PhiPlacement &Placement);

/// Same, reusing a caller-provided dominator tree. φ insertion adds
/// instructions only, so a tree computed before the call stays valid for
/// the renaming walk.
std::vector<VarId> applySSA(Function &F, const PhiPlacement &Placement,
                            const DomTree &DT);

/// True if no variable has more than one defining instruction.
bool isSSAForm(const Function &F);

} // namespace depflow

#endif // DEPFLOW_SSA_SSA_H
