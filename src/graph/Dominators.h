//===- graph/Dominators.h - Dominator and postdominator trees ---*- C++ -*-===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dominator trees via the Cooper-Harvey-Kennedy iterative algorithm. A
/// postdominator tree is the dominator tree of the reversed graph rooted at
/// the exit. Dominance queries are O(1) after construction via Euler
/// intervals on the tree.
///
/// The tree is built straight from a function, in either direction, over
/// the block CFG or over the edge-split CFG (the paper's dummy node on
/// every edge, Section 3.1: nodes [0, numBlocks) are blocks and
/// numBlocks + e is CFG edge e). The edge-split trees order each
/// cycle-equivalence class into the program structure tree (Theorem 1)
/// and give PRE's projection its span rule; the block trees serve the
/// baselines (Cytron SSA, FOW control dependence), loops, slicing and the
/// verifier. A tree over an arbitrary `Digraph` exists for tests.
///
/// Every table — successor and predecessor CSRs, reverse-postorder
/// numbers, idoms, the children CSR, Euler intervals — lives in one
/// exactly-sized allocation. A postdominator tree swaps the successor and
/// predecessor CSRs instead of copying a reversed graph.
///
//===----------------------------------------------------------------------===//

#ifndef DEPFLOW_GRAPH_DOMINATORS_H
#define DEPFLOW_GRAPH_DOMINATORS_H

#include "graph/Digraph.h"

#include <memory>
#include <span>
#include <vector>

namespace depflow {

class DomTree {
  std::unique_ptr<unsigned[]> Storage; // every table below points into it
  unsigned NumNodes = 0, Root = 0;
  const unsigned *PredOff = nullptr, *PredVal = nullptr; // tree direction
  const unsigned *RpoNum = nullptr;   // ~0u for unreachable nodes
  const unsigned *Idom = nullptr;     // ~0u for the root and unreachable
  const unsigned *ChildOff = nullptr, *ChildVal = nullptr;
  const unsigned *In = nullptr, *Out = nullptr; // Euler intervals

  template <typename ForEachEdge>
  void build(unsigned NumEdges, bool Reverse, ForEachEdge Edges);

public:
  enum Direction { Forward, Post };

  /// Dominators (\p D == Forward, rooted at the entry) or postdominators
  /// (Post, rooted at the exit) of \p F's block CFG, in
  /// `BasicBlock::successors()` order.
  DomTree(const Function &F, Direction D);

  /// The same over the edge-split CFG of \p F, whose edges are numbered
  /// by \p E.
  DomTree(const Function &F, const CFGEdges &E, Direction D);

  /// Dominators of \p G rooted at \p RootNode.
  DomTree(const Digraph &G, unsigned RootNode);

  unsigned numNodes() const { return NumNodes; }
  unsigned root() const { return Root; }

  /// Nodes not reachable from the root have no idom and take part in no
  /// dominance.
  bool isReachable(unsigned N) const { return RpoNum[N] != ~0u; }

  /// Immediate dominator, or -1 for the root and unreachable nodes.
  int idom(unsigned N) const { return int(Idom[N]); }

  /// Dominator-tree children, in the reverse postorder of the
  /// successor-ordered DFS from the root.
  std::span<const unsigned> children(unsigned N) const {
    return {ChildVal + ChildOff[N], ChildVal + ChildOff[N + 1]};
  }

  /// Predecessors of \p N in the tree's direction (successors in the CFG
  /// for a postdominator tree).
  std::span<const unsigned> preds(unsigned N) const {
    return {PredVal + PredOff[N], PredVal + PredOff[N + 1]};
  }

  /// Reflexive dominance: true if \p A dominates \p B. Unreachable nodes
  /// dominate nothing and are dominated by nothing.
  bool dominates(unsigned A, unsigned B) const {
    if (!isReachable(A) || !isReachable(B))
      return false;
    return In[A] <= In[B] && Out[B] <= Out[A];
  }

  bool strictlyDominates(unsigned A, unsigned B) const {
    return A != B && dominates(A, B);
  }
};

/// Brute-force dominance for validation: A dominates B iff removing A
/// makes B unreachable from the root (or A == B). O(N·E).
bool bruteForceDominates(const Digraph &G, unsigned Root, unsigned A,
                         unsigned B);

/// Dominance frontiers (Cytron et al.) of \p DT's graph: DF[n] = nodes w
/// such that n dominates a predecessor of w but not strictly w itself.
std::vector<std::vector<unsigned>> dominanceFrontiers(const DomTree &DT);

} // namespace depflow

#endif // DEPFLOW_GRAPH_DOMINATORS_H
