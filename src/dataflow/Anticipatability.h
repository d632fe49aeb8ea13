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
///  * `runRelativeAnticipatability` — the Figure 5b equations: per-
///    dependence-edge booleans over variable x's slice of the DFG. The
///    boundary is false at uses of x that do not compute e and at pruned
///    (dead) switch sides; the multiedge rule ORs over a tail's heads
///    ("anticipatable at any head ⇒ anticipatable at the tail"), and a
///    switch ANDs (for ANT) or ORs (for PAN) its direction ports.
///  * `projectRelativeAnt`         — Section 5.1's projection of the DFG
///    result onto CFG edges; total anticipatability of a multi-variable
///    expression is the conjunction of its variables' projections.
///  * `runExpressionAnticipatability` — the mode-selecting front door:
///    whole-expression ANT per CFG edge through either evaluation mode.
///
//===----------------------------------------------------------------------===//

#ifndef DEPFLOW_DATAFLOW_ANTICIPATABILITY_H
#define DEPFLOW_DATAFLOW_ANTICIPATABILITY_H

#include "core/DepFlowGraph.h"
#include "dataflow/SparseEngine.h"
#include "ir/CFGEdges.h"
#include "ir/Expression.h"
#include "ir/Function.h"

#include <memory>
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

/// Deprecated: use runCFGAnticipatability(F, E, Expr, Out).
inline CFGAntResult cfgAnticipatability(Function &F, const CFGEdges &E,
                                        const Expression &Expr) {
  CFGAntResult R;
  (void)runCFGAnticipatability(F, E, Expr, R);
  return R;
}

/// Deprecated: use runCFGRelativeAnticipatability(F, E, Expr, X, Out).
inline CFGAntResult cfgRelativeAnticipatability(Function &F,
                                                const CFGEdges &E,
                                                const Expression &Expr,
                                                VarId X) {
  CFGAntResult R;
  (void)runCFGRelativeAnticipatability(F, E, Expr, X, R);
  return R;
}

/// Booleans per DFG edge id (only variable X's edges are meaningful).
struct DFGAntResult {
  std::vector<bool> AntEdge;
  std::vector<bool> PanEdge;

  /// ANT at a multiedge tail: OR over the tail's heads.
  bool antAtTail(const DepFlowGraph &G, unsigned Node, unsigned Port) const;
  bool panAtTail(const DepFlowGraph &G, unsigned Node, unsigned Port) const;
};

/// Figure 5b: relative anticipatability solved on the DFG through
/// `SparseBackwardEngine` (one greatest-fixed-point pass for ANT, one
/// least-fixed-point pass for PAN, both over \p X's slice of the edges).
Status runRelativeAnticipatability(Function &F, const DepFlowGraph &G,
                                   const Expression &Expr, VarId X,
                                   DFGAntResult &Out);

/// Deprecated: use runRelativeAnticipatability(F, G, Expr, X, Out).
inline DFGAntResult dfgRelativeAnticipatability(Function &F,
                                                const DepFlowGraph &G,
                                                const Expression &Expr,
                                                VarId X) {
  DFGAntResult R;
  (void)runRelativeAnticipatability(F, G, Expr, X, R);
  return R;
}

class DomTree;

/// Reusable context for projections: the edge-split dominator and
/// postdominator trees. It depends only on the CFG shape (blocks and
/// successor lists), so it stays valid across instruction edits and must
/// be rebuilt after any change to the shape.
struct ProjectionContext {
  std::unique_ptr<DomTree> DT;
  std::unique_ptr<DomTree> PDT;
  ProjectionContext(Function &F, const CFGEdges &E);
  ~ProjectionContext();
};

/// Projects the per-dependence-edge result onto CFG edges: relative ANT at
/// CFG edge c is true iff some dependence edge for \p X spans c (its tail
/// dominates c, its head postdominates c, and c cannot revisit the tail
/// before the head). \p Ctx must be built for \p F's current CFG shape;
/// one context serves every projection over that shape. Only \p X's
/// slice of \p G is visited (`DepFlowGraph::edgesOfVar`).
std::vector<bool> projectRelativeAnt(Function &F, const CFGEdges &E,
                                     const DepFlowGraph &G,
                                     const DFGAntResult &R, VarId X,
                                     const ProjectionContext &Ctx);

/// The PAN analogue: partially anticipatable at c iff some spanning
/// dependence edge has PAN at its head (same span rule; PAN's existential
/// reading makes the disjunction exact as well).
std::vector<bool> projectRelativePan(Function &F, const CFGEdges &E,
                                     const DepFlowGraph &G,
                                     const DFGAntResult &R, VarId X,
                                     const ProjectionContext &Ctx);

/// Whole-expression ANT per CFG edge in the requested evaluation mode:
/// `SparseDFG` solves each variable's slice on \p G and intersects the
/// projections (immediate-only expressions fall back to the CFG equations,
/// matching Section 5.1's scope); `DenseCFG` runs the Figure 5a equations
/// directly. \p Pan (optional) additionally receives PAN per CFG edge —
/// only the dense equations produce it, so requesting it in sparse mode is
/// a Status error rather than a silently empty result. \p Ctx (optional)
/// is a projection context built for \p F's current CFG shape; a caller
/// that queries many expressions over one shape passes it to skip
/// rebuilding the edge-split dominator trees per query. Sparse mode builds
/// its own when it is null.
Status runExpressionAnticipatability(Function &F, const CFGEdges &E,
                                     const DepFlowGraph *G,
                                     const Expression &Expr, EvalMode Mode,
                                     std::vector<bool> &Ant,
                                     std::vector<bool> *Pan = nullptr,
                                     const ProjectionContext *Ctx = nullptr);

/// Deprecated: use runExpressionAnticipatability(F, E, &G, Expr,
/// EvalMode::SparseDFG, Ant).
inline std::vector<bool> dfgExpressionAnt(Function &F, const CFGEdges &E,
                                          const DepFlowGraph &G,
                                          const Expression &Expr) {
  std::vector<bool> Ant;
  (void)runExpressionAnticipatability(F, E, &G, Expr, EvalMode::SparseDFG,
                                      Ant);
  return Ant;
}

} // namespace depflow

#endif // DEPFLOW_DATAFLOW_ANTICIPATABILITY_H
