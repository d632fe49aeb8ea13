//===- ir/CFGEdges.h - Dense CFG edge numbering -----------------*- C++ -*-===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's algorithms are *edge*-based: dominance, control dependence,
/// cycle equivalence, SESE regions, and all DFG dataflow values attach to
/// control flow edges rather than nodes. `CFGEdges` assigns each edge of a
/// function a dense id and provides per-block in/out adjacency.
///
/// Edge ids follow block order, then successor order, so a block's out
/// edges have consecutive ids. The adjacency is two CSR arrays (one offset
/// per block plus one edge id per edge and direction): `outEdges()` and
/// `inEdges()` return spans into them, and a build makes a fixed handful
/// of allocations however many blocks the function has. In edges list
/// their ids ascending.
///
/// Edge ids are a snapshot: rebuild after mutating the CFG.
///
//===----------------------------------------------------------------------===//

#ifndef DEPFLOW_IR_CFGEDGES_H
#define DEPFLOW_IR_CFGEDGES_H

#include "ir/Function.h"

#include <cstdint>
#include <span>
#include <vector>

namespace depflow {

/// One control flow edge From→To; SuccIdx is To's position in From's
/// successor list (0 = jump/true side, 1 = false side).
struct CFGEdge {
  unsigned Id;
  BasicBlock *From;
  BasicBlock *To;
  unsigned SuccIdx;
};

class CFGEdges {
  std::vector<CFGEdge> Edges;
  // CSR adjacency indexed by block id: block B's out edges are
  // OutIdx[OutOff[B]..OutOff[B+1]), its in edges likewise. Out edges have
  // consecutive ids, so OutIdx is the identity; it is kept so that both
  // directions hand out the same span type.
  std::vector<std::uint32_t> OutOff, InOff;
  std::vector<std::uint32_t> OutIdx, InIdx;

public:
  explicit CFGEdges(const Function &F);

  unsigned size() const { return unsigned(Edges.size()); }

  const CFGEdge &edge(unsigned Id) const {
    assert(Id < Edges.size() && "edge id out of range");
    return Edges[Id];
  }

  std::span<const std::uint32_t> outEdges(const BasicBlock *BB) const {
    return {OutIdx.data() + OutOff[BB->id()],
            OutIdx.data() + OutOff[BB->id() + 1]};
  }
  std::span<const std::uint32_t> inEdges(const BasicBlock *BB) const {
    return {InIdx.data() + InOff[BB->id()],
            InIdx.data() + InOff[BB->id() + 1]};
  }

  /// Returns the id of the \p SuccIdx-th out edge of \p From.
  unsigned outEdge(const BasicBlock *From, unsigned SuccIdx) const {
    assert(SuccIdx < outEdges(From).size() && "successor index out of range");
    return OutIdx[OutOff[From->id()] + SuccIdx];
  }
};

} // namespace depflow

#endif // DEPFLOW_IR_CFGEDGES_H
