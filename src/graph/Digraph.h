//===- graph/Digraph.h - Generic directed graph -----------------*- C++ -*-===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A plain adjacency-list digraph over dense node ids, for testing the
/// structural algorithms on arbitrary graphs, not just the graphs of IR
/// functions, and as their independent reference (`bruteForceDominates`,
/// the directed cycle-equivalence definition). Conversions from Function
/// CFGs live here too; the analyses themselves build their dominator
/// trees straight from the function (graph/Dominators.h).
///
//===----------------------------------------------------------------------===//

#ifndef DEPFLOW_GRAPH_DIGRAPH_H
#define DEPFLOW_GRAPH_DIGRAPH_H

#include <cassert>
#include <vector>

namespace depflow {

class CFGEdges;
class Function;

class Digraph {
  std::vector<std::vector<unsigned>> Succs;
  std::vector<std::vector<unsigned>> Preds;
  unsigned EdgeCount = 0;

public:
  Digraph() = default;
  explicit Digraph(unsigned NumNodes) : Succs(NumNodes), Preds(NumNodes) {}

  unsigned addNode() {
    Succs.emplace_back();
    Preds.emplace_back();
    return unsigned(Succs.size() - 1);
  }

  void addEdge(unsigned From, unsigned To) {
    assert(From < Succs.size() && To < Succs.size() && "node out of range");
    Succs[From].push_back(To);
    Preds[To].push_back(From);
    ++EdgeCount;
  }

  unsigned numNodes() const { return unsigned(Succs.size()); }
  unsigned numEdges() const { return EdgeCount; }

  const std::vector<unsigned> &succs(unsigned N) const {
    assert(N < Succs.size() && "node out of range");
    return Succs[N];
  }
  const std::vector<unsigned> &preds(unsigned N) const {
    assert(N < Preds.size() && "node out of range");
    return Preds[N];
  }

  /// Returns the graph with every edge direction flipped.
  Digraph reversed() const;

  /// Marks every node reachable from \p Root (following successors).
  std::vector<bool> reachableFrom(unsigned Root) const;

  /// True if \p To is reachable from \p From.
  bool reaches(unsigned From, unsigned To) const;
};

/// The block-level CFG of \p F: node ids are block ids.
Digraph cfgDigraph(const Function &F);

/// The edge-split CFG: nodes [0, numBlocks) are blocks and node
/// numBlocks + e is a dummy node inserted on CFG edge e (the paper's device
/// for extending node properties to edges, Section 3.1).
Digraph edgeSplitDigraph(const Function &F, const CFGEdges &E);

} // namespace depflow

#endif // DEPFLOW_GRAPH_DIGRAPH_H
