//===- cdg/ControlDependence.h - Control dependence -------------*- C++ -*-===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Control dependence in two flavors:
///
///  * The classic Ferrante-Ottenstein-Warren computation over the
///    postdominator tree (the baseline the paper improves on), for nodes
///    and — via the edge-split graph — for edges.
///  * The paper's *factored CDG*: cycle-equivalence classes of edges (all
///    edges in a class have identical control dependence, Claim 1), with
///    one control-dependence set per class.
///
/// A control dependence is identified by a *branch edge*: a CFG edge whose
/// source has two successors (a switch node). Definition 2 of the paper:
/// x is control dependent on branch n iff x postdominates some path from n
/// but does not postdominate n; equivalently, for branch edge e = (n, v),
/// x postdominates e (i.e. v, in the split graph the dummy node of e) and
/// x does not postdominate n.
///
//===----------------------------------------------------------------------===//

#ifndef DEPFLOW_CDG_CONTROLDEPENDENCE_H
#define DEPFLOW_CDG_CONTROLDEPENDENCE_H

#include "structure/CycleEquivalence.h"

#include <vector>

namespace depflow {

class DomTree;
class Function;

/// Per-block control dependence: for each block id, the sorted list of
/// branch-edge ids it is control dependent on (FOW over \p PDT, the
/// caller's `DomTree(F, DomTree::Post)`). Following Definition 2, a block
/// is never control dependent on its own branch. When \p SelfDependent is
/// non-null it receives one flag per block id, set for every block that
/// postdominates one of its own successors: the loop self-dependence the
/// sets leave out, where the block's branch decides whether it runs again.
/// When \p EntryDependent is non-null it receives one flag per block id,
/// set for every block that postdominates the entry block: the blocks that
/// FOW's augmenting Entry→Exit edge makes control dependent on the
/// function's entry, whatever their branch sources.
std::vector<std::vector<unsigned>>
nodeControlDependence(const Function &F, const CFGEdges &E,
                      const DomTree &PDT,
                      std::vector<char> *SelfDependent = nullptr,
                      std::vector<char> *EntryDependent = nullptr);

/// Per-edge control dependence via the edge-split graph: for each CFG edge
/// id, the sorted list of branch-edge ids it is control dependent on.
/// This is the baseline O(E·N)-worst-case computation.
std::vector<std::vector<unsigned>>
edgeControlDependenceBaseline(const Function &F, const CFGEdges &E);

/// The factored control dependence graph: the cycle-equivalence partition
/// of the edges plus one control-dependence set per class.
struct FactoredCDG {
  CycleEquivalence Classes;
  /// ClassCD[c] = sorted branch-edge ids every edge of class c depends on.
  std::vector<std::vector<unsigned>> ClassCD;

  const std::vector<unsigned> &edgeCD(unsigned EdgeId) const {
    return ClassCD[Classes.ClassOf[EdgeId]];
  }
};

/// Builds the factored CDG: O(E) for the partition plus one set
/// computation per class (not per edge).
FactoredCDG buildFactoredCDG(const Function &F, const CFGEdges &E);

/// Same, reusing an already-computed cycle-equivalence partition (the
/// analysis manager's cache). \p CE must come from
/// cycleEquivalenceClasses(F, E).
FactoredCDG buildFactoredCDG(const Function &F, const CFGEdges &E,
                             const CycleEquivalence &CE);

/// Partition edges by *equal control-dependence set* using the baseline
/// computation (for validating Claim 1 and for the benchmark's baseline
/// side). Returns a class id per edge.
std::vector<unsigned> edgeCDPartitionBaseline(const Function &F,
                                              const CFGEdges &E,
                                              unsigned &NumClasses);

} // namespace depflow

#endif // DEPFLOW_CDG_CONTROLDEPENDENCE_H
