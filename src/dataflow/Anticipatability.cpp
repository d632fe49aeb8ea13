//===- dataflow/Anticipatability.cpp - ANT/PAN analyses -------------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "dataflow/Anticipatability.h"

#include "support/Statistic.h"
#include "support/Worklist.h"

#include <optional>

using namespace depflow;

// Work counters for both anticipatability solvers: an "eval" is one
// worklist pop (one transfer-function application), a "bit flip" is one
// edge value change. The DFG solver only visits the variable's own edges,
// which is where its asymptotic win over the CFG solver comes from
// (bench_ant_epr fits both against E).
DEPFLOW_STATISTIC(NumAntCFGEvals, "ant",
                  "CFG ANT/PAN solver: block transfer evaluations");
DEPFLOW_STATISTIC(NumAntCFGBitsFlipped, "ant",
                  "CFG ANT/PAN solver: edge bits changed");
DEPFLOW_STATISTIC(NumAntDFGEvals, "ant",
                  "DFG ANT/PAN solver: edge evaluations");
DEPFLOW_STATISTIC(NumAntDFGBitsFlipped, "ant",
                  "DFG ANT/PAN solver: edge bits changed");

/// True if \p I is a computation of \p Expr.
static bool computesExpr(const Instruction &I, const Expression &Expr) {
  std::optional<Expression> E = expressionOf(I);
  return E && *E == Expr;
}

/// True if \p I assigns one of \p Vars.
static bool definesAnyOf(const Instruction &I,
                         const std::vector<VarId> &Vars) {
  const auto *D = dyn_cast<DefInst>(&I);
  if (!D)
    return false;
  for (VarId V : Vars)
    if (D->def() == V)
      return true;
  return false;
}

/// Shared CFG backward solver for ANT (universal, greatest fixed point) and
/// PAN (existential, least fixed point) with a configurable kill set.
static Status solveCFGAnticipatability(Function &F, const CFGEdges &E,
                                       const Expression &Expr,
                                       const std::vector<VarId> &Kills,
                                       CFGAntResult &R) {
  F.recomputePreds();
  R.ANT.assign(E.size(), true);  // Greatest fixed point start.
  R.PAN.assign(E.size(), false); // Least fixed point start.

  // Backward transfer through a block: value before the instruction
  // sequence, given the value after it.
  auto Transfer = [&](const BasicBlock *BB, bool After) {
    bool Val = After;
    const auto &Insts = BB->instructions();
    for (auto It = Insts.rbegin(); It != Insts.rend(); ++It) {
      const Instruction &I = **It;
      if (computesExpr(I, Expr))
        Val = true;
      else if (definesAnyOf(I, Kills))
        Val = false;
    }
    return Val;
  };

  // Value at a block's end for each direction rule.
  auto OutValue = [&](const BasicBlock *BB, const std::vector<bool> &EdgeVal,
                      bool Universal) {
    const auto &Out = E.outEdges(BB);
    if (Out.empty())
      return false; // The boundary at end.
    bool Val = Universal;
    for (unsigned EId : Out)
      Val = Universal ? (Val && EdgeVal[EId]) : (Val || EdgeVal[EId]);
    return Val;
  };

  // Booleans over E.size() edges lower monotonically; only a broken
  // transfer could exceed this.
  const std::uint64_t MaxEvals =
      64 + 1024 * (std::uint64_t(E.size()) + F.numBlocks() + 1);
  for (int Universal = 1; Universal >= 0; --Universal) {
    std::vector<bool> &EdgeVal = Universal ? R.ANT : R.PAN;
    std::uint64_t Evals = 0;
    Worklist WL(F.numBlocks());
    for (unsigned B = 0; B != F.numBlocks(); ++B)
      WL.push(B);
    while (!WL.empty()) {
      if (++Evals > MaxEvals)
        return Status::error("cfg anticipatability: work bound exceeded");
      BasicBlock *BB = F.block(WL.pop());
      ++NumAntCFGEvals;
      bool In = Transfer(BB, OutValue(BB, EdgeVal, Universal));
      for (unsigned EId : E.inEdges(BB)) {
        if (EdgeVal[EId] != In) {
          EdgeVal[EId] = In;
          ++NumAntCFGBitsFlipped;
          WL.push(E.edge(EId).From->id());
        }
      }
    }
  }
  return Status::success();
}

Status depflow::runCFGAnticipatability(Function &F, const CFGEdges &E,
                                       const Expression &Expr,
                                       CFGAntResult &Out) {
  return solveCFGAnticipatability(F, E, Expr, Expr.variables(), Out);
}

Status depflow::runCFGRelativeAnticipatability(Function &F, const CFGEdges &E,
                                               const Expression &Expr,
                                               VarId X, CFGAntResult &Out) {
  return solveCFGAnticipatability(F, E, Expr, {X}, Out);
}

namespace {

/// The Figure 5b equations as a `SparseBackwardEngine` client: the value
/// of a dependence edge is determined by the node it enters.
class AntPanClient {
  const Expression &Expr;
  bool Universal; // true = ANT (AND over switch ports), false = PAN (OR).

public:
  using Value = bool;

  AntPanClient(const Expression &Expr, bool Universal)
      : Expr(Expr), Universal(Universal) {}

  static bool equal(const bool &A, const bool &B) { return A == B; }

  bool evalEdge(const DepFlowGraph &G, unsigned EId,
                const EdgeSlice<bool> &EdgeVal) const {
    const DepFlowGraph::Edge &Ed = G.edge(EId);
    const DepFlowGraph::Node &Dst = G.node(Ed.Dst);
    switch (Dst.Kind) {
    case DepFlowGraph::NodeKind::Use:
      // Boundary: true exactly at computations of the expression.
      return computesExpr(*Dst.Inst, Expr);
    case DepFlowGraph::NodeKind::Switch: {
      // Port value: OR over the port's heads (multiedge rule). ANT needs
      // every direction (AND over ports); PAN needs some direction. A
      // pruned direction (no edges on the port) reads false: the variable
      // is dead there, the Section 5.1 boundary rule.
      unsigned NumPorts = Dst.Block->numSuccessors();
      bool Val = Universal;
      for (unsigned P = 0; P != NumPorts; ++P) {
        bool PortVal = false;
        for (unsigned OutId : G.outEdges(Ed.Dst))
          if (G.edge(OutId).SrcPort == P)
            PortVal = PortVal || EdgeVal[OutId];
        Val = Universal ? (Val && PortVal) : (Val || PortVal);
      }
      return Val;
    }
    case DepFlowGraph::NodeKind::Merge: {
      // Inputs take the merge output's value: OR over its heads.
      bool Val = false;
      for (unsigned OutId : G.outEdges(Ed.Dst))
        Val = Val || EdgeVal[OutId];
      return Val;
    }
    case DepFlowGraph::NodeKind::Def:
    case DepFlowGraph::NodeKind::Entry:
      depflow_unreachable("dependence edges never enter defs");
    }
    depflow_unreachable("unknown DFG node kind");
  }
};

} // namespace

/// Solves ANT (\p Universal: greatest fixed point) or PAN (least fixed
/// point) of \p Expr relative to \p X over \p X's slice of \p G only.
/// Edge EId's value lands in \p Vals[EId - \p Base], which the caller has
/// filled with the fixed-point start.
static Status solveSlice(const DepFlowGraph &G, const Expression &Expr,
                         VarId X, bool Universal, std::vector<bool> &Vals,
                         unsigned Base) {
  BackwardEngineCounters Ctr;
  Ctr.Evals = &NumAntDFGEvals;
  Ctr.Flips = &NumAntDFGBitsFlipped;
  return SparseBackwardEngine<AntPanClient>::solve(
      G, X, AntPanClient(Expr, Universal), Vals, Base, Ctr);
}

Status depflow::runRelativeAnticipatability(Function &F,
                                            const DepFlowGraph &G,
                                            const Expression &Expr, VarId X,
                                            DFGAntResult &Out) {
  (void)F;
  Out.AntEdge.assign(G.numEdges(), true);  // Greatest fixed point.
  Out.PanEdge.assign(G.numEdges(), false); // Least fixed point.
  Status S = solveSlice(G, Expr, X, /*Universal=*/true, Out.AntEdge, 0);
  if (!S.ok())
    return S;
  return solveSlice(G, Expr, X, /*Universal=*/false, Out.PanEdge, 0);
}

ProjectionContext::ProjectionContext(Function &F, const CFGEdges &E)
    : DT(F, E, DomTree::Forward), PDT(F, E, DomTree::Post) {}

// A dependence edge d = (t, h) spans CFG edge c when: t's position
// dominates c, h's postdominates it, and no path from c can revisit t's
// block before h's (the cycle clause of Theorem 1 — without it a loop's
// back edge would appear spanned by a same-iteration def→use pair). On a
// spanned edge, Definition 6's condition 3 guarantees no assignment to X
// before h, so the head's value holds at c too. Bypass edges' spans cover
// the interiors of the regions they skip.
static std::vector<bool> projectEdgeValues(Function &F, const CFGEdges &E,
                                           const DepFlowGraph &G,
                                           const EdgeSlice<bool> &EdgeVal,
                                           VarId X,
                                           const ProjectionContext &Ctx) {
  const DomTree &DT = Ctx.DT;
  const DomTree &PDT = Ctx.PDT;
  unsigned NB = F.numBlocks();

  // A node's position within its block: merges sit at the head, switches
  // at the end, defs/uses at their instruction's index.
  auto Position = [](const DepFlowGraph::Node &N) {
    switch (N.Kind) {
    case DepFlowGraph::NodeKind::Merge:
    case DepFlowGraph::NodeKind::Entry:
      return -1;
    case DepFlowGraph::NodeKind::Switch:
      return int(N.Block->size()) + 1;
    default:
      return N.Block->indexOf(N.Inst);
    }
  };

  // The two block searches below run once per true dependence edge. They
  // share one stack, and mark blocks with the edge's epoch instead of
  // clearing a set per edge: block B is in Revisits (BeforeHead) iff its
  // stamp there equals Epoch.
  std::vector<unsigned> RevisitStamp(NB, 0), BeforeHeadStamp(NB, 0);
  unsigned Epoch = 0;
  std::vector<BasicBlock *> Stack;

  std::vector<bool> Out(E.size(), false);
  for (unsigned DId : G.edgesOfVar(X)) {
    if (!EdgeVal[DId])
      continue;
    const DepFlowGraph::Edge &D = G.edge(DId);
    const DepFlowGraph::Node &Tail = G.node(D.Src);
    const DepFlowGraph::Node &Head = G.node(D.Dst);
    bool SameBlock = Tail.Block == Head.Block;
    // Same-block, forward: a plain intra-block dependence, spans nothing.
    // Same-block with the head at or before the tail (e.g. the loop
    // header's switch feeding its own merge): the value *wraps* around a
    // cycle, spanning the whole loop body.
    bool Wrap = SameBlock && Position(Head) <= Position(Tail);
    if (SameBlock && !Wrap)
      continue;
    unsigned TailAnchor =
        Tail.Kind == DepFlowGraph::NodeKind::Switch
            ? NB + E.outEdge(Tail.Block, D.SrcPort)
            : Tail.Block->id();
    unsigned HeadAnchor = Head.Block->id();
    ++Epoch;

    // Blocks that can reach the tail's block without passing the head's
    // (backward search from the tail's block avoiding the head's): an edge
    // into such a block would revisit the tail before the head. A wrap
    // dependence cannot revisit its tail first — re-entering the block
    // reaches the earlier head position before it.
    if (!Wrap) {
      Stack.assign(1, Tail.Block);
      RevisitStamp[Tail.Block->id()] = Epoch;
      while (!Stack.empty()) {
        BasicBlock *BB = Stack.back();
        Stack.pop_back();
        for (BasicBlock *P : BB->predecessors()) {
          if (P != Head.Block && RevisitStamp[P->id()] != Epoch) {
            RevisitStamp[P->id()] = Epoch;
            Stack.push_back(P);
          }
        }
      }
    }
    // Blocks reachable from the tail without first crossing the head
    // (forward search avoiding the head's block): an edge leaving a block
    // outside this set lies *after* the head — e.g. inside a loop whose
    // header merge is the head — and is not spanned. For wrap dependences
    // the search starts at the shared block's successors and stops when it
    // re-enters the block.
    Stack.clear();
    BeforeHeadStamp[Tail.Block->id()] = Epoch;
    if (Wrap) {
      for (BasicBlock *S : Tail.Block->successors())
        if (S != Head.Block && BeforeHeadStamp[S->id()] != Epoch) {
          BeforeHeadStamp[S->id()] = Epoch;
          Stack.push_back(S);
        }
    } else {
      Stack.push_back(Tail.Block);
    }
    while (!Stack.empty()) {
      BasicBlock *BB = Stack.back();
      Stack.pop_back();
      for (BasicBlock *S : BB->successors()) {
        if (S != Head.Block && BeforeHeadStamp[S->id()] != Epoch) {
          BeforeHeadStamp[S->id()] = Epoch;
          Stack.push_back(S);
        }
      }
    }

    for (unsigned C = 0; C != E.size(); ++C) {
      if (!Out[C] && RevisitStamp[E.edge(C).To->id()] != Epoch &&
          BeforeHeadStamp[E.edge(C).From->id()] == Epoch &&
          DT.dominates(TailAnchor, NB + C) &&
          PDT.dominates(HeadAnchor, NB + C))
        Out[C] = true;
    }
  }
  return Out;
}

std::vector<bool> depflow::projectRelativeAnt(Function &F, const CFGEdges &E,
                                              const DepFlowGraph &G,
                                              const DFGAntResult &R, VarId X,
                                              const ProjectionContext &Ctx) {
  return projectEdgeValues(F, E, G, EdgeSlice<bool>(R.AntEdge, 0), X, Ctx);
}

std::vector<bool> depflow::projectRelativePan(Function &F, const CFGEdges &E,
                                              const DepFlowGraph &G,
                                              const DFGAntResult &R, VarId X,
                                              const ProjectionContext &Ctx) {
  return projectEdgeValues(F, E, G, EdgeSlice<bool>(R.PanEdge, 0), X, Ctx);
}

Status depflow::runExpressionAnticipatability(Function &F, const CFGEdges &E,
                                              const DepFlowGraph *G,
                                              const Expression &Expr,
                                              EvalMode Mode,
                                              std::vector<bool> &Ant,
                                              std::vector<bool> *Pan,
                                              const ProjectionContext *Ctx) {
  if (Mode == EvalMode::DenseCFG) {
    CFGAntResult R;
    Status S = runCFGAnticipatability(F, E, Expr, R);
    if (!S.ok())
      return S;
    Ant = std::move(R.ANT);
    if (Pan)
      *Pan = std::move(R.PAN);
    return Status::success();
  }
  if (!G)
    return Status::error(
        "expression anticipatability: SparseDFG mode needs a DepFlowGraph");
  if (Pan)
    return Status::error("expression anticipatability: whole-expression PAN "
                         "projection is only defined in dense-cfg mode");
  std::vector<VarId> Vars = Expr.variables();
  if (Vars.empty()) {
    // Immediate-only expressions have no dependence edges; the CFG
    // equations are the defined semantics (Section 5.1's scope).
    CFGAntResult R;
    Status S = runCFGAnticipatability(F, E, Expr, R);
    if (!S.ok())
      return S;
    Ant = std::move(R.ANT);
    return Status::success();
  }
  std::optional<ProjectionContext> OwnCtx;
  if (!Ctx)
    Ctx = &OwnCtx.emplace(F, E);
  // Only ANT is solved, each variable over its own slice; PAN has no
  // whole-expression projection (see above), so the sparse path skips it.
  Ant.assign(E.size(), true);
  std::vector<bool> Slice;
  for (VarId X : Vars) {
    const DepFlowGraph::EdgeIdRange Range = G->edgesOfVar(X);
    Slice.assign(Range.size(), true);
    if (Status S = solveSlice(*G, Expr, X, /*Universal=*/true, Slice,
                              Range.first());
        !S.ok())
      return S;
    std::vector<bool> Proj = projectEdgeValues(
        F, E, *G, EdgeSlice<bool>(Slice, Range.first()), X, *Ctx);
    for (unsigned C = 0; C != E.size(); ++C)
      Ant[C] = Ant[C] && Proj[C];
  }
  return Status::success();
}
