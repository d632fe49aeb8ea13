//===- structure/SESE.h - SESE regions and the PST --------------*- C++ -*-===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Single-entry single-exit regions, derived from cycle equivalence.
/// Within one equivalence class, edges are totally ordered by dominance
/// (Theorem 1); each *consecutive* pair forms a canonical SESE region, and
/// canonical regions nest into the Program Structure Tree (PST).
///
/// No dominator tree is built. One stack-driven search from the entry
/// numbers the edges in the order it examines them, and that order sorts
/// every class by dominance: an edge that dominates edge e lies on the
/// search-tree path to e's source, and the search examines every edge of
/// that path before it reaches e.
///
/// Region 0 is always the synthetic root covering the whole function.
/// A region's "interior" is the set of blocks on paths between its entry
/// and exit edges; boundary edges belong to the *parent* region. Each block
/// and each edge stores its innermost region, computed by replaying the
/// same search: a region opens when its entry edge is examined and closes
/// at its exit edge.
///
/// The tables (per block, per edge, and the children CSR) share one array,
/// and the build's temporaries come from one ScratchBlock, so a build makes
/// three allocations however large the function is.
///
//===----------------------------------------------------------------------===//

#ifndef DEPFLOW_STRUCTURE_SESE_H
#define DEPFLOW_STRUCTURE_SESE_H

#include "structure/CycleEquivalence.h"

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace depflow {

struct SESERegion {
  unsigned Id = 0;
  int EntryEdge = -1; // CFG edge id; -1 only for the root region.
  int ExitEdge = -1;
  int Parent = -1; // PST parent region; -1 only for the root.
  unsigned Depth = 0;
};

class ProgramStructureTree {
  std::vector<SESERegion> Regions;
  /// The per-block and per-edge tables and the children CSR, back to back:
  /// innermost region per block id, innermost region per edge id, the
  /// region each edge enters and exits (NoRegion for none), and region
  /// R's children at ChildIdx[ChildOff[R]..ChildOff[R+1]).
  std::vector<std::uint32_t> Tables;
  std::uint32_t NumBlocks = 0;
  std::uint32_t NumEdges = 0;
  static constexpr std::uint32_t NoRegion = ~std::uint32_t(0);

  const std::uint32_t *blockRegion() const { return Tables.data(); }
  const std::uint32_t *edgeRegion() const { return blockRegion() + NumBlocks; }
  const std::uint32_t *openedBy() const { return edgeRegion() + NumEdges; }
  const std::uint32_t *closedBy() const { return openedBy() + NumEdges; }
  const std::uint32_t *childOff() const { return closedBy() + NumEdges; }
  const std::uint32_t *childIdx() const {
    return childOff() + Regions.size() + 1;
  }

public:
  /// Builds the PST. \p CE must come from cycleEquivalenceClasses(F, E).
  ProgramStructureTree(const Function &F, const CFGEdges &E,
                       const CycleEquivalence &CE);

  unsigned numRegions() const { return unsigned(Regions.size()); }
  const SESERegion &region(unsigned Id) const { return Regions[Id]; }
  const SESERegion &root() const { return Regions[0]; }

  /// PST children of region \p Id, in the order the search entered them.
  std::span<const std::uint32_t> children(unsigned Id) const {
    return {childIdx() + childOff()[Id], childIdx() + childOff()[Id + 1]};
  }

  /// Innermost region whose interior contains \p BlockId.
  unsigned regionOfBlock(unsigned BlockId) const {
    return blockRegion()[BlockId];
  }
  /// Innermost region containing edge \p EdgeId (boundary edges belong to
  /// the parent of the region they bound).
  unsigned regionOfEdge(unsigned EdgeId) const {
    return edgeRegion()[EdgeId];
  }

  /// Region entered through \p EdgeId (its entry edge), or -1.
  int regionOpenedBy(unsigned EdgeId) const { return int(openedBy()[EdgeId]); }
  /// Region exited through \p EdgeId (its exit edge), or -1.
  int regionClosedBy(unsigned EdgeId) const { return int(closedBy()[EdgeId]); }

  /// True if \p Ancestor is \p R or encloses it.
  bool encloses(unsigned Ancestor, unsigned R) const;

  /// Renders the tree for debugging/examples.
  std::string dump(const Function &F, const CFGEdges &E) const;
};

} // namespace depflow

#endif // DEPFLOW_STRUCTURE_SESE_H
