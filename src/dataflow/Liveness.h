//===- dataflow/Liveness.h - Live variable analysis -------------*- C++ -*-===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Classic backward live-variable analysis over blocks. Used for pruned SSA
/// construction (φs only where the variable is live) and for the ANT/PAN
/// boundary conditions of Section 5.1 (dependences initialized false where
/// the variable is dead).
///
//===----------------------------------------------------------------------===//

#ifndef DEPFLOW_DATAFLOW_LIVENESS_H
#define DEPFLOW_DATAFLOW_LIVENESS_H

#include "ir/Function.h"

#include <cstdint>
#include <vector>

namespace depflow {

/// Variables live at each block's entry and exit, stored as flat rows of
/// 64-bit words: block B's live-in set, then its live-out set.
class Liveness {
  std::size_t Words = 0; // words per set
  std::vector<std::uint64_t> Rows;

  bool test(unsigned B, bool Out, VarId V) const {
    return Rows[(2 * std::size_t(B) + Out) * Words + V / 64] >> (V % 64) & 1;
  }

  friend Liveness computeLiveness(Function &F);

public:
  bool liveIn(unsigned B, VarId V) const { return test(B, false, V); }
  bool liveOut(unsigned B, VarId V) const { return test(B, true, V); }
  bool liveIn(const BasicBlock *BB, VarId V) const {
    return liveIn(BB->id(), V);
  }
  bool liveOut(const BasicBlock *BB, VarId V) const {
    return liveOut(BB->id(), V);
  }
};

/// Computes liveness for \p F. Phi operands count as live-out of the
/// corresponding predecessor (standard SSA convention); the base IR has no
/// phis, where this reduces to the textbook equations.
Liveness computeLiveness(Function &F);

} // namespace depflow

#endif // DEPFLOW_DATAFLOW_LIVENESS_H
