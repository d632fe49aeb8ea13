//===- dataflow/Anticipatability.h - ANT/PAN analyses -----------*- C++ -*-===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Total and partial anticipatability (Section 5.1, Figures 5-7), the
/// backward dataflow problem that def-use chains and SSA form cannot
/// express but the DFG can. The DFG solver is an instance of
/// `SparseBackwardEngine`; the CFG solver is the dense fallback, and both
/// are reachable through one Status-returning API:
///
///  * `runCFGAnticipatability` / `runCFGRelativeAnticipatability` — ANT/
///    PAN per CFG edge, the Figure 5a equations (greatest/least fixed
///    points respectively); the relative form kills on one variable only
///    (Definition 9).
///  * `runBatchedAnticipatability` — ANT of every candidate of a
///    `CandidateSet` per CFG edge, as rows of 64-bit words (candidate k is
///    bit k). Its sparse path runs the Figure 5b equations once per
///    variable X over X's slice of the DFG only, with a word of X's
///    candidates on each dependence edge (bit-vector problems are
///    separable), and reads each CFG edge's value back through the DFG's
///    per-edge dependence map (see below). A candidate's bit is the AND
///    over its variables (Definition 9).
///  * `runRelativeAnticipatability` — the Figure 5b equations for one
///    expression: per-dependence-edge booleans over variable x's slice.
///    The boundary is false at uses of x that do not compute e and at
///    pruned (dead) switch sides; the multiedge rule ORs over a tail's
///    heads ("anticipatable at any head ⇒ anticipatable at the tail"), and
///    a switch ANDs (for ANT) or ORs (for PAN) its direction ports.
///  * `projectRelativeAnt` / `projectRelativePan` — Section 5.1's
///    projection of such a result onto CFG edges.
///  * `runExpressionAnticipatability` — whole-expression ANT per CFG edge
///    through either evaluation mode; its sparse path is a batch of one.
///
/// The projection. The DFG records, for each CFG edge c and each variable
/// X live on it, the source (n, p) whose value of X crosses c. ANT_X(c)
/// is the OR of the values of (n, p)'s dependence edges whose heads lie
/// at or after c, in block reverse postorder (RPO):
///  * a use or switch head counts when c is a forward edge and the head's
///    block comes no earlier than c's target;
///  * a merge head counts when it is fed through c itself, or when c is
///    forward and its target comes no later than the source of the
///    in-edge feeding the merge;
///  * a canonical SESE region whose entry and exit edges carry X from the
///    same source bypasses X (it assigns no X); X is dead inside it unless
///    used there, so its exit edge's value is ORed into every edge inside.
/// Neither dominator trees nor block searches are needed, only RPO
/// numbers and the PST the DFG was built over.
///
//===----------------------------------------------------------------------===//

#ifndef DEPFLOW_DATAFLOW_ANTICIPATABILITY_H
#define DEPFLOW_DATAFLOW_ANTICIPATABILITY_H

#include "core/DepFlowGraph.h"
#include "dataflow/SparseEngine.h"
#include "ir/CFGEdges.h"
#include "ir/Expression.h"
#include "ir/Function.h"
#include "structure/SESE.h"

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace depflow {

/// Booleans per CFG edge id.
struct CFGAntResult {
  std::vector<bool> ANT;
  std::vector<bool> PAN;
};

/// Figure 5a: ANT/PAN of \p Expr at every CFG edge.
Status runCFGAnticipatability(Function &F, const CFGEdges &E,
                              const Expression &Expr, CFGAntResult &Out);

/// Definition 9: ANT/PAN of \p Expr relative to variable \p X only.
Status runCFGRelativeAnticipatability(Function &F, const CFGEdges &E,
                                      const Expression &Expr, VarId X,
                                      CFGAntResult &Out);

/// The candidates of one batch as the batched solvers index them:
/// candidate k is bit k % 64 of word k / 64 of a row. Per instruction of
/// the function (canonical order: block order, then position), the
/// candidate it computes; per variable, the candidates reading it (the
/// ones an assignment to it kills), ascending. A set of more than one
/// candidate builds both tables, with one scan of the function; a set of
/// one answers from the candidate itself (it compares each instruction it
/// is asked about), so the single-expression entry points build nothing.
class CandidateSet {
public:
  static constexpr std::uint32_t None = ~std::uint32_t(0);

  /// \p Cands must be distinct and outlive the set.
  CandidateSet(const Function &F, std::span<const Expression> Cands);

  unsigned size() const { return unsigned(Cands.size()); }
  /// 64-bit words per row.
  unsigned words() const { return (size() + 63) / 64; }
  const Expression &operator[](unsigned K) const { return Cands[K]; }
  /// The candidate \p I computes, or None; \p InstrIdx is \p I's
  /// canonical index.
  std::uint32_t computedBy(const Instruction &I, unsigned InstrIdx) const {
    if (size() == 1) {
      std::optional<Expression> X = expressionOf(I);
      return X && *X == Cands[0] ? 0 : None;
    }
    return InstCand[InstrIdx];
  }
  /// The candidates reading variable \p V.
  std::span<const std::uint32_t> readers(VarId V) const {
    if (size() == 1)
      return {&Only, Cands[0].uses(V) ? 1u : 0u};
    return {Readers.data() + ReaderStart[V],
            ReaderStart[V + 1] - ReaderStart[V]};
  }

private:
  /// The reader list of a set of one.
  static constexpr std::uint32_t Only = 0;
  std::span<const Expression> Cands;
  std::vector<std::uint32_t> InstCand;
  std::vector<std::uint32_t> ReaderStart, Readers;
};

/// ANT of every candidate of \p Cands at every CFG edge of \p F, in one
/// call: row c of \p Rows (`Cands.words()` words from `Rows[c * words]`)
/// gets bit k set iff candidate k is anticipatable on CFG edge c. \p Rows
/// must hold exactly `E.size() * Cands.words()` words. `SparseDFG` solves
/// on \p G and projects through its dependence map over \p PST's regions
/// (\p PST must come from (F, E); built here when null); candidates
/// without a variable operand take the CFG equations (Section 5.1's
/// scope). `DenseCFG` runs the Figure 5a equations per candidate.
Status runBatchedAnticipatability(Function &F, const CFGEdges &E,
                                  const DepFlowGraph *G,
                                  const CandidateSet &Cands, EvalMode Mode,
                                  std::span<std::uint64_t> Rows,
                                  const ProgramStructureTree *PST = nullptr);

/// Booleans per DFG edge id (only variable X's edges are meaningful).
struct DFGAntResult {
  std::vector<bool> AntEdge;
  std::vector<bool> PanEdge;
};

/// Figure 5b: relative anticipatability solved on the DFG through
/// `SparseBackwardEngine` (one greatest-fixed-point pass for ANT, one
/// least-fixed-point pass for PAN, both over \p X's slice of the edges).
/// The result is indexed by DFG edge id; edges of other variables keep
/// the fixed-point starts (ANT true, PAN false).
Status runRelativeAnticipatability(Function &F, const DepFlowGraph &G,
                                   const Expression &Expr, VarId X,
                                   DFGAntResult &Out);

/// Projects the per-dependence-edge ANT of \p R onto CFG edges through
/// \p G's dependence map (the rules in the file comment). \p PST must come
/// from \p F's current CFG (built here when null).
std::vector<bool> projectRelativeAnt(Function &F, const CFGEdges &E,
                                     const DepFlowGraph &G,
                                     const DFGAntResult &R, VarId X,
                                     const ProgramStructureTree *PST = nullptr);

/// The PAN analogue: the same projection of the PAN edge values (PAN's
/// existential reading makes the disjunction over heads exact as well).
std::vector<bool> projectRelativePan(Function &F, const CFGEdges &E,
                                     const DepFlowGraph &G,
                                     const DFGAntResult &R, VarId X,
                                     const ProgramStructureTree *PST = nullptr);

/// Whole-expression ANT per CFG edge in the requested evaluation mode:
/// `SparseDFG` is `runBatchedAnticipatability` with \p Expr alone;
/// `DenseCFG` runs the Figure 5a equations directly. \p Pan (optional)
/// additionally receives PAN per CFG edge — only the dense equations
/// produce it, so requesting it in sparse mode is a Status error rather
/// than a silently empty result.
Status runExpressionAnticipatability(Function &F, const CFGEdges &E,
                                     const DepFlowGraph *G,
                                     const Expression &Expr, EvalMode Mode,
                                     std::vector<bool> &Ant,
                                     std::vector<bool> *Pan = nullptr,
                                     const ProgramStructureTree *PST = nullptr);

} // namespace depflow

#endif // DEPFLOW_DATAFLOW_ANTICIPATABILITY_H
