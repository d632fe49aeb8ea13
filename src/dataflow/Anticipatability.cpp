//===- dataflow/Anticipatability.cpp - ANT/PAN analyses -------------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "dataflow/Anticipatability.h"

#include "support/Statistic.h"
#include "support/Worklist.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <memory>
#include <optional>

using namespace depflow;

// Work counters for both anticipatability solvers: an "eval" is one
// worklist pop (one transfer-function application), a "bit flip" is one
// edge value change. The DFG solver only visits the variable's own edges,
// which is where its asymptotic win over the CFG solver comes from
// (bench_ant_epr fits both against E). The DFG solver carries a word of
// candidates per edge and counts a flip per changed bit, so a batched
// solve flips exactly as many bits as its solo solves together.
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
static bool definesAnyOf(const Instruction &I, std::span<const VarId> Vars) {
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
                                       std::span<const VarId> Kills,
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
  return solveCFGAnticipatability(F, E, Expr, {&X, 1}, Out);
}

CandidateSet::CandidateSet(const Function &F,
                           std::span<const Expression> Cands)
    : Cands(Cands) {
  const std::uint32_t K = std::uint32_t(Cands.size());
  if (K == 1)
    return;
  ReaderStart.assign(F.numVars() + 1, 0);
  for (const Expression &X : Cands)
    for (VarId V : X.variables())
      ++ReaderStart[V + 1];
  for (unsigned V = 0; V != F.numVars(); ++V)
    ReaderStart[V + 1] += ReaderStart[V];
  Readers.resize(ReaderStart.back());
  std::vector<std::uint32_t> Next(ReaderStart.begin(), ReaderStart.end() - 1);
  for (std::uint32_t C = 0; C != K; ++C)
    for (VarId V : Cands[C].variables())
      Readers[Next[V]++] = C;

  // Which candidate each instruction computes: binary search over the
  // candidates sorted once.
  std::vector<std::uint32_t> ByExpr(K);
  for (std::uint32_t C = 0; C != K; ++C)
    ByExpr[C] = C;
  std::sort(ByExpr.begin(), ByExpr.end(),
            [&](std::uint32_t A, std::uint32_t B) {
              return Cands[A] < Cands[B];
            });
  assert(std::adjacent_find(ByExpr.begin(), ByExpr.end(),
                            [&](std::uint32_t A, std::uint32_t B) {
                              return Cands[A] == Cands[B];
                            }) == ByExpr.end() &&
         "candidates must be distinct");
  InstCand.reserve(F.numInstructions());
  for (const auto &BB : F.blocks())
    for (const auto &I : BB->instructions()) {
      std::optional<Expression> X = expressionOf(*I);
      std::uint32_t Cand = None;
      if (X) {
        auto It = std::lower_bound(ByExpr.begin(), ByExpr.end(), *X,
                                   [&](std::uint32_t C, const Expression &X) {
                                     return Cands[C] < X;
                                   });
        if (It != ByExpr.end() && Cands[*It] == *X)
          Cand = *It;
      }
      InstCand.push_back(Cand);
    }
}

namespace {

using Word = std::uint64_t;

/// The Figure 5b equations as a `SparseBackwardEngine` client, for every
/// candidate of one word at once: the value of a dependence edge is
/// determined by the node it enters.
class AntPanClient {
  const CandidateSet &Cands;
  /// Per candidate: its bit in the solved word, or 0 if not solved.
  const Word *BitOf;
  /// The solved bits: the AND identity of the ANT port rule.
  Word Top;
  bool Universal; // true = ANT (AND over switch ports), false = PAN (OR).

public:
  using Value = Word;

  AntPanClient(const CandidateSet &Cands, const Word *BitOf, Word Top,
               bool Universal)
      : Cands(Cands), BitOf(BitOf), Top(Top), Universal(Universal) {}

  static unsigned distance(Word A, Word B) {
    return unsigned(std::popcount(A ^ B));
  }

  Word evalEdge(const DepFlowGraph &G, unsigned EId,
                const EdgeSlice<Word> &EdgeVal) const {
    const DepFlowGraph::Edge &Ed = G.edge(EId);
    const DepFlowGraph::Node &Dst = G.node(Ed.Dst);
    switch (Dst.Kind) {
    case DepFlowGraph::NodeKind::Use: {
      // Boundary: set exactly for the candidate this use computes.
      const std::uint32_t Cand =
          Cands.computedBy(*Dst.Inst, unsigned(G.instrIndexOf(Ed.Dst)));
      return Cand == CandidateSet::None ? 0 : BitOf[Cand];
    }
    case DepFlowGraph::NodeKind::Switch: {
      // Port value: OR over the port's heads (multiedge rule). ANT needs
      // every direction (AND over ports); PAN needs some direction. A
      // pruned direction (no edges on the port) reads false: the variable
      // is dead there, the Section 5.1 boundary rule.
      unsigned NumPorts = Dst.Block->numSuccessors();
      Word Val = Universal ? Top : 0;
      for (unsigned P = 0; P != NumPorts; ++P) {
        Word PortVal = 0;
        for (unsigned OutId : G.outEdges(Ed.Dst))
          if (G.edge(OutId).SrcPort == P)
            PortVal |= EdgeVal[OutId];
        Val = Universal ? (Val & PortVal) : (Val | PortVal);
      }
      return Val;
    }
    case DepFlowGraph::NodeKind::Merge: {
      // Inputs take the merge output's value: OR over its heads.
      Word Val = 0;
      for (unsigned OutId : G.outEdges(Ed.Dst))
        Val |= EdgeVal[OutId];
      return Val;
    }
    case DepFlowGraph::NodeKind::Def:
    case DepFlowGraph::NodeKind::Entry:
      depflow_unreachable("dependence edges never enter defs");
    }
    depflow_unreachable("unknown DFG node kind");
  }
};

/// Solves ANT (\p Universal: greatest fixed point) or PAN (least fixed
/// point) of the candidates \p BitOf selects, relative to \p X, over
/// \p X's slice of \p G only. Edge EId's value lands in
/// \p Vals[EId - \p Base], which the caller has filled with the
/// fixed-point start.
Status solveSlice(const DepFlowGraph &G, const CandidateSet &Cands,
                  const Word *BitOf, Word Top, VarId X, bool Universal,
                  std::vector<Word> &Vals, unsigned Base) {
  BackwardEngineCounters Ctr;
  Ctr.Evals = &NumAntDFGEvals;
  Ctr.Flips = &NumAntDFGBitsFlipped;
  return SparseBackwardEngine<AntPanClient>::solve(
      G, X, AntPanClient(Cands, BitOf, Top, Universal), Vals, Base, Ctr);
}

/// Section 5.1's projection (the rules in the header) for one function:
/// block RPO numbers and the PST in preorder, computed once, and per
/// variable X the source of X's value on each CFG edge. Each edge keeps a
/// cursor into its dependence list (ascending by variable), so reading the
/// sources of every variable in ascending order walks each list once.
class EdgeProjection {
  using DepSlot = DepFlowGraph::DepSlot;
  const Function &F;
  const CFGEdges &E;
  const DepFlowGraph &G;
  const ProgramStructureTree &PST;
  static constexpr std::uint32_t Unreached = ~std::uint32_t(0);
  std::vector<std::uint32_t> Rpo;      // block id -> RPO number
  std::vector<std::uint32_t> Preorder; // region ids, parents first
  std::vector<std::uint32_t> Cursor;   // per CFG edge: next list entry
  std::vector<DepSlot> Source;         // per CFG edge: the loaded source
  std::vector<Word> Acc;               // per region id

  void numberBlocks();
  void orderRegions();

  /// The OR of the values of the dependence edges out of \p Src whose
  /// heads lie at or after CFG edge \p C.
  Word headsAfter(unsigned C, DepSlot Src, const EdgeSlice<Word> &Vals) const;

  /// The region bypasses the loaded variable: its entry and exit edges
  /// carry it from the same source.
  bool bypasses(const SESERegion &R) const {
    const DepSlot In = Source[unsigned(R.EntryEdge)];
    const DepSlot Out = Source[unsigned(R.ExitEdge)];
    return Out.Node >= 0 && In.Node == Out.Node && In.Port == Out.Port;
  }

public:
  EdgeProjection(const Function &F, const CFGEdges &E, const DepFlowGraph &G,
                 const ProgramStructureTree &PST)
      : F(F), E(E), G(G), PST(PST), Cursor(E.size(), 0), Source(E.size()),
        Acc(PST.numRegions()) {
    numberBlocks();
    orderRegions();
  }

  /// Reads the source of \p X's value on every CFG edge. Successive calls
  /// must not descend in \p X.
  void load(VarId X);

  /// Writes to \p Out[c], for every CFG edge c, the projection of the
  /// loaded variable's dependence-edge values \p Vals.
  void project(const EdgeSlice<Word> &Vals, Word *Out);
};

void EdgeProjection::numberBlocks() {
  // The search the DFG was built in: the creation order of its out-edges,
  // which headsAfter relies on, is monotone in exactly this RPO.
  const unsigned NB = F.numBlocks();
  std::vector<unsigned> Order(3 * std::size_t(NB));
  std::vector<std::uint8_t> Reached(NB, 0);
  const std::size_t N = blockReversePostorder(
      F, E, {Order.data(), NB}, {Order.data() + NB, 2 * std::size_t(NB)},
      Reached);
  Rpo.assign(NB, Unreached);
  for (std::size_t I = 0; I != N; ++I)
    Rpo[Order[I]] = std::uint32_t(I);
}

void EdgeProjection::orderRegions() {
  Preorder.reserve(PST.numRegions());
  Preorder.push_back(0);
  for (std::size_t I = 0; I != Preorder.size(); ++I)
    for (std::uint32_t Child : PST.children(Preorder[I]))
      Preorder.push_back(Child);
}

void EdgeProjection::load(VarId X) {
  for (unsigned C = 0; C != E.size(); ++C) {
    std::span<const DepFlowGraph::DepEntry> Deps = G.depsAt(C);
    std::uint32_t &K = Cursor[C];
    while (K != Deps.size() && Deps[K].Var < X)
      ++K;
    Source[C] = K != Deps.size() && Deps[K].Var == X ? Deps[K].Src
                                                     : DepSlot{-1, 0};
  }
}

Word EdgeProjection::headsAfter(unsigned C, DepSlot Src,
                                const EdgeSlice<Word> &Vals) const {
  const CFGEdge &Edge = E.edge(C);
  const std::uint32_t To = Rpo[Edge.To->id()];
  const bool Forward = Rpo[Edge.From->id()] < To;
  // Out-edges come in creation order: the use and switch heads in RPO of
  // their blocks, then the merge heads. Walking back from the end visits
  // the merges, then the other heads down to the first one before c.
  Word Val = 0;
  std::span<const std::uint32_t> Out = G.outEdges(unsigned(Src.Node));
  for (auto It = Out.rbegin(); It != Out.rend(); ++It) {
    const DepFlowGraph::Edge &Dep = G.edge(*It);
    const DepFlowGraph::Node Head = G.node(Dep.Dst);
    bool After;
    if (Head.Kind == DepFlowGraph::NodeKind::Merge) {
      const unsigned Feed = E.inEdges(Head.Block)[Dep.DstPort];
      After = Feed == C ||
              (Forward && To <= Rpo[E.edge(Feed).From->id()]);
    } else if (!Forward || Rpo[Head.Block->id()] < To) {
      break;
    } else {
      After = true;
    }
    if (After && Dep.SrcPort == Src.Port)
      Val |= Vals[*It];
  }
  return Val;
}

void EdgeProjection::project(const EdgeSlice<Word> &Vals, Word *Out) {
  for (unsigned C = 0; C != E.size(); ++C)
    Out[C] = Source[C].Node < 0 ? 0 : headsAfter(C, Source[C], Vals);
  // Inside a bypassing region an edge also takes the region's exit value,
  // and so every enclosing bypassing region's: Acc[R] is the OR of the
  // exit values of R and of its bypassing ancestors.
  Word Any = 0;
  Acc[0] = 0;
  for (std::uint32_t R : Preorder) {
    const SESERegion &Reg = PST.region(R);
    if (Reg.Parent < 0)
      continue;
    Acc[R] = Acc[unsigned(Reg.Parent)] |
             (bypasses(Reg) ? Out[unsigned(Reg.ExitEdge)] : 0);
    Any |= Acc[R];
  }
  if (Any)
    for (unsigned C = 0; C != E.size(); ++C)
      Out[C] |= Acc[PST.regionOfEdge(C)];
}

/// \p PST, or one built for (F, E) into \p Own.
const ProgramStructureTree &
pstOrBuild(const Function &F, const CFGEdges &E,
           const ProgramStructureTree *PST,
           std::unique_ptr<ProgramStructureTree> &Own) {
  if (!PST)
    Own = std::make_unique<ProgramStructureTree>(
        F, E, cycleEquivalenceClasses(F, E));
  return PST ? *PST : *Own;
}

void resetBit(Word *Row, std::uint32_t K) {
  Row[K / 64] &= ~(Word(1) << (K % 64));
}

/// Copies \p Words' bit 0 into a boolean per entry.
std::vector<bool> lowBits(const std::vector<Word> &Words) {
  std::vector<bool> Out(Words.size());
  for (std::size_t I = 0; I != Words.size(); ++I)
    Out[I] = Words[I] & 1;
  return Out;
}

std::vector<bool> projectOne(Function &F, const CFGEdges &E,
                             const DepFlowGraph &G,
                             const std::vector<bool> &EdgeVals, VarId X,
                             const ProgramStructureTree *PST) {
  std::unique_ptr<ProgramStructureTree> Own;
  EdgeProjection P(F, E, G, pstOrBuild(F, E, PST, Own));
  const DepFlowGraph::EdgeIdRange Range = G.edgesOfVar(X);
  std::vector<Word> Vals(Range.size());
  for (unsigned I = 0; I != Range.size(); ++I)
    Vals[I] = EdgeVals[Range.first() + I];
  std::vector<Word> Out(E.size());
  P.load(X);
  P.project(EdgeSlice<Word>(Vals, Range.first()), Out.data());
  return lowBits(Out);
}

} // namespace

Status depflow::runBatchedAnticipatability(Function &F, const CFGEdges &E,
                                           const DepFlowGraph *G,
                                           const CandidateSet &Cands,
                                           EvalMode Mode,
                                           std::span<Word> Rows,
                                           const ProgramStructureTree *PST) {
  const unsigned K = Cands.size(), W = Cands.words();
  if (Rows.size() != std::size_t(E.size()) * W)
    return Status::error("batched anticipatability: row storage size "
                         "mismatch");
  if (Mode == EvalMode::SparseDFG && !G)
    return Status::error(
        "expression anticipatability: SparseDFG mode needs a DepFlowGraph");
  // Every row starts with every candidate set; each solve clears the bits
  // of its candidates where they are not anticipatable.
  for (std::size_t C = 0; C != E.size(); ++C) {
    Word *Row = Rows.data() + C * W;
    std::fill(Row, Row + W, ~Word(0));
    if (K % 64)
      Row[W - 1] = (Word(1) << (K % 64)) - 1;
  }
  // The CFG equations, per candidate: the dense mode, and the sparse
  // mode's candidates without variables (no dependence edges to solve on).
  for (std::uint32_t C = 0; C != K; ++C) {
    if (Mode == EvalMode::SparseDFG && !Cands[C].variables().empty())
      continue;
    CFGAntResult R;
    if (Status S = runCFGAnticipatability(F, E, Cands[C], R); !S.ok())
      return S;
    for (std::size_t Edge = 0; Edge != E.size(); ++Edge)
      if (!R.ANT[Edge])
        resetBit(Rows.data() + Edge * W, C);
  }
  if (Mode == EvalMode::DenseCFG)
    return Status::success();

  // Per variable X, 64 of X's candidates at a time: one solve over X's
  // slice, one projection, and each candidate's bit ANDed in.
  std::unique_ptr<ProgramStructureTree> Own;
  EdgeProjection P(F, E, *G, pstOrBuild(F, E, PST, Own));
  std::vector<Word> BitOf(K, 0), Vals, Out(E.size());
  for (VarId X = 0; X != F.numVars(); ++X) {
    std::span<const std::uint32_t> Readers = Cands.readers(X);
    if (Readers.empty())
      continue;
    P.load(X);
    const DepFlowGraph::EdgeIdRange Range = G->edgesOfVar(X);
    for (std::size_t Lo = 0; Lo < Readers.size(); Lo += 64) {
      std::span<const std::uint32_t> Chunk =
          Readers.subspan(Lo, std::min<std::size_t>(64, Readers.size() - Lo));
      const Word Top =
          Chunk.size() == 64 ? ~Word(0) : (Word(1) << Chunk.size()) - 1;
      for (std::size_t J = 0; J != Chunk.size(); ++J)
        BitOf[Chunk[J]] = Word(1) << J;
      Vals.assign(Range.size(), Top);
      if (Status S = solveSlice(*G, Cands, BitOf.data(), Top, X,
                                /*Universal=*/true, Vals, Range.first());
          !S.ok())
        return S;
      P.project(EdgeSlice<Word>(Vals, Range.first()), Out.data());
      for (unsigned C = 0; C != E.size(); ++C)
        for (Word Miss = Top & ~Out[C]; Miss; Miss &= Miss - 1)
          resetBit(Rows.data() + std::size_t(C) * W,
                   Chunk[unsigned(std::countr_zero(Miss))]);
      for (std::uint32_t Cand : Chunk)
        BitOf[Cand] = 0;
    }
  }
  return Status::success();
}

Status depflow::runRelativeAnticipatability(Function &F,
                                            const DepFlowGraph &G,
                                            const Expression &Expr, VarId X,
                                            DFGAntResult &Out) {
  // A batch of one: the expression is candidate 0, solved as bit 0.
  const CandidateSet One(F, {&Expr, 1});
  const Word BitOf = 1;
  const DepFlowGraph::EdgeIdRange Range = G.edgesOfVar(X);
  Out.AntEdge.assign(G.numEdges(), true);  // Greatest fixed point.
  Out.PanEdge.assign(G.numEdges(), false); // Least fixed point.
  std::vector<Word> Vals;
  for (bool Universal : {true, false}) {
    Vals.assign(Range.size(), Universal ? 1 : 0);
    if (Status S = solveSlice(G, One, &BitOf, 1, X, Universal, Vals,
                              Range.first());
        !S.ok())
      return S;
    std::vector<bool> &Edges = Universal ? Out.AntEdge : Out.PanEdge;
    for (unsigned I = 0; I != Range.size(); ++I)
      Edges[Range.first() + I] = Vals[I] & 1;
  }
  return Status::success();
}

std::vector<bool> depflow::projectRelativeAnt(Function &F, const CFGEdges &E,
                                              const DepFlowGraph &G,
                                              const DFGAntResult &R, VarId X,
                                              const ProgramStructureTree *PST) {
  return projectOne(F, E, G, R.AntEdge, X, PST);
}

std::vector<bool> depflow::projectRelativePan(Function &F, const CFGEdges &E,
                                              const DepFlowGraph &G,
                                              const DFGAntResult &R, VarId X,
                                              const ProgramStructureTree *PST) {
  return projectOne(F, E, G, R.PanEdge, X, PST);
}

Status depflow::runExpressionAnticipatability(Function &F, const CFGEdges &E,
                                              const DepFlowGraph *G,
                                              const Expression &Expr,
                                              EvalMode Mode,
                                              std::vector<bool> &Ant,
                                              std::vector<bool> *Pan,
                                              const ProgramStructureTree *PST) {
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
  if (Pan)
    return Status::error("expression anticipatability: whole-expression PAN "
                         "projection is only defined in dense-cfg mode");
  const CandidateSet One(F, {&Expr, 1});
  std::vector<Word> Rows(E.size());
  if (Status S =
          runBatchedAnticipatability(F, E, G, One, Mode, Rows, PST);
      !S.ok())
    return S;
  Ant = lowBits(Rows);
  return Status::success();
}
