//===- ssa/DefUse.h - Reaching definitions and def-use chains ---*- C++ -*-===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Classic reaching definitions (iterative bitvector dataflow) and def-use
/// chains (Definitions 3-4 of the paper) — the first of the paper's three
/// baselines. Every variable has an implicit *entry definition* (variables
/// hold 0 at function entry), represented by a null Instruction pointer, so
/// condition 1 of Definition 6 holds at every use.
///
//===----------------------------------------------------------------------===//

#ifndef DEPFLOW_DATAFLOW_DEFUSE_H
#define DEPFLOW_DATAFLOW_DEFUSE_H

#include "ir/Function.h"
#include "support/BitVector.h"

#include <unordered_map>
#include <vector>

namespace depflow {

class ReachingDefs {
public:
  /// One use site: operand \p OpIdx of \p I, the instruction with
  /// canonical row \p Row (block order, then position in the block), reads
  /// a variable.
  struct Use {
    const Instruction *I;
    unsigned OpIdx;
    VarId Var;
    std::uint32_t Row;
  };

private:
  // Global def-site numbering: per variable, site 0 is the entry def, then
  // each defining instruction in block/instruction order.
  std::vector<const Instruction *> Sites; // nullptr for entry defs
  std::vector<VarId> SiteVar;
  std::unordered_map<const Instruction *, unsigned> SiteOf;
  std::vector<unsigned> EntrySiteOf; // per var

  std::vector<Use> AllUses;
  // For each use (parallel to AllUses): reaching def sites.
  std::vector<std::vector<unsigned>> Reaching;
  std::unordered_map<const Instruction *, std::vector<int>> UseIndex;

public:
  explicit ReachingDefs(Function &F);

  const std::vector<Use> &uses() const { return AllUses; }

  /// Definitions reaching operand \p OpIdx of \p I (must be a variable
  /// operand). A nullptr entry denotes the entry definition.
  std::vector<const Instruction *> defsReaching(const Instruction *I,
                                                unsigned OpIdx) const;

  /// Total def-use chain count (sum over uses of reaching defs) — the
  /// quantity whose worst case is O(E^2 V) per the paper (Section 2.2).
  std::size_t numChains() const;
};

} // namespace depflow

#endif // DEPFLOW_DATAFLOW_DEFUSE_H
