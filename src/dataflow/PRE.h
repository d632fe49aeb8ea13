//===- dataflow/PRE.h - Partial redundancy elimination ----------*- C++ -*-===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Elimination of partial redundancies (Section 5.2). Two placement
/// strategies over a pluggable anticipatability engine (CFG Figure 5a or
/// DFG Figure 5b + projection), selected through one Status-returning
/// entry point:
///
///  * `PREStrategy::Busy` — the strategy the paper describes first: insert
///    a computation wherever it is anticipatable (at the earliest
///    frontier) and delete computations wherever the value has become
///    available. Eliminates all partial redundancies but may move code
///    superfluously (the paper's Figure 6 caveat).
///  * `PREStrategy::MorelRenvoise` — the classic [MR79] placement-possible
///    fixed point, which only moves code when a partial redundancy exists.
///
/// `runPRE` places every candidate of a function in one solve: candidate k
/// is bit k of a word, one scan of the instructions fills the local
/// properties (TRANSP, ANTLOC, COMP) of all candidates, and AV, PAV and PP
/// run word-parallel. Bit-vector problems are separable, so each
/// candidate's decisions equal those of a solo solve; the single-expression
/// overload is a batch of one.
///
/// Both strategies require critical edges to be split first
/// (ir/Transforms.h), the same preprocessing [MR79] itself calls for; an
/// unsplit critical edge is reported as a Status error, not an assertion.
///
//===----------------------------------------------------------------------===//

#ifndef DEPFLOW_DATAFLOW_PRE_H
#define DEPFLOW_DATAFLOW_PRE_H

#include "ir/CFGEdges.h"
#include "ir/Expression.h"
#include "ir/Function.h"
#include "support/Error.h"

#include <span>
#include <vector>

namespace depflow {

struct PREDecisions {
  /// Where to insert `t = e`: at the head (AtEnd = false) or before the
  /// terminator (AtEnd = true) of Block.
  struct InsertPoint {
    BasicBlock *Block;
    bool AtEnd;
  };
  std::vector<InsertPoint> Inserts;
  /// Computations of e to replace with `x = t`.
  std::vector<Instruction *> Deletes;
};

enum class PREStrategy : std::uint8_t { Busy, MorelRenvoise };

/// Computes placement decisions for every expression of \p Candidates
/// (which must be distinct) under \p Strategy, in one word-parallel solve.
/// \p Ants[k] is ANT of candidate k per CFG edge id, from either
/// anticipatability engine. \p Out[k] receives candidate k's decisions:
/// inserts in block (busy: edge) order, deletes in block and then
/// instruction order. Fails (leaving \p Out partial) when busy code motion
/// meets an unsplit critical edge.
Status runPRE(Function &F, const CFGEdges &E,
              std::span<const Expression> Candidates,
              std::span<const std::vector<bool>> Ants, PREStrategy Strategy,
              std::vector<PREDecisions> &Out);

/// The decisions for \p Expr alone: a batch of one.
Status runPRE(Function &F, const CFGEdges &E, const Expression &Expr,
              const std::vector<bool> &AntEdges, PREStrategy Strategy,
              PREDecisions &Out);

/// Applies decisions: creates a temporary, inserts computations, rewrites
/// deleted computations into copies. Returns the number of deletions.
unsigned applyPRE(Function &F, const Expression &Expr,
                  const PREDecisions &Decisions);

/// All distinct binary expressions computed in \p F that have at least one
/// variable operand (the candidates for PRE).
std::vector<Expression> collectExpressions(const Function &F);

} // namespace depflow

#endif // DEPFLOW_DATAFLOW_PRE_H
