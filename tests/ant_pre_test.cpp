//===- tests/ant_pre_test.cpp - Anticipatability and PRE tests ------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
// Section 5: backward dataflow on the DFG. Property tests pin the
// projected DFG relative anticipatability to the CFG computation, the
// Definition 9 decomposition for multi-variable expressions, and the
// semantic safety of both PRE strategies (via the interpreter's dynamic
// expression counters: no run may evaluate the expression more often after
// the transformation).
//
//===----------------------------------------------------------------------===//

#include "dataflow/Anticipatability.h"
#include "dataflow/PRE.h"
#include "interp/Interpreter.h"
#include "ParseOrDie.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Transforms.h"
#include "ir/Verifier.h"
#include "pass/Analyses.h"
#include "pass/PassPipeline.h"
#include "support/Statistic.h"
#include "verify/DiffOracle.h"
#include "workload/Generators.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

using namespace depflow;

namespace {

Expression exprPlus(const Function &F, const char *A, const char *B) {
  return Expression{BinOp::Add, Operand::var(unsigned(F.lookupVar(A))),
                    Operand::var(unsigned(F.lookupVar(B)))};
}

Expression exprPlusImm(const Function &F, const char *A, std::int64_t K) {
  return Expression{BinOp::Add, Operand::var(unsigned(F.lookupVar(A))),
                    Operand::imm(K)};
}

// Figure 6: two computations of x+1 on alternative paths — anticipatable
// everywhere below the definition of x, but with no redundancy.
const char *Fig6Src = R"(
func fig6(p) {
entry:
  x = read()
  if p goto a else b
a:
  y = x + 1
  goto join
b:
  z = x * 2
  w = x + 1
  goto join
join:
  ret x, y, z, w
}
)";

TEST(Anticipatability, Figure6SingleVariable) {
  auto F = parseFunctionOrDie(Fig6Src);
  CFGEdges E(*F);
  Expression XPlus1 = exprPlusImm(*F, "x", 1);
  VarId X = unsigned(F->lookupVar("x"));

  CFGAntResult CFG;
  ASSERT_TRUE(runCFGAnticipatability(*F, E, XPlus1, CFG).ok());
  // Anticipatable on the two branch edges (each path ahead computes x+1
  // before any assignment to x); not on the join edges — the computations
  // are behind by then.
  EXPECT_TRUE(CFG.ANT[0]);
  EXPECT_TRUE(CFG.ANT[1]);
  EXPECT_FALSE(CFG.ANT[2]);
  EXPECT_FALSE(CFG.ANT[3]);

  DepFlowGraph G = DepFlowGraph::build(*F);
  DFGAntResult R;
  ASSERT_TRUE(runRelativeAnticipatability(*F, G, XPlus1, X, R).ok());
  std::vector<bool> Proj = projectRelativeAnt(*F, E, G, R, X);
  for (unsigned C = 0; C != E.size(); ++C)
    EXPECT_EQ(Proj[C], CFG.ANT[C]) << "projected edge " << C;

  // The boundary: the dependence edge into the x*2 use is false (a use of
  // x that is not a computation of x+1 — the paper's d4).
  const Instruction *ZDef = nullptr;
  for (const auto &BB : F->blocks())
    if (BB->label() == "b")
      ZDef = BB->instructions()[0].get();
  int UseNode = G.useNode(ZDef, 0);
  ASSERT_GE(UseNode, 0);
  ASSERT_EQ(G.inEdges(unsigned(UseNode)).size(), 1u);
  EXPECT_FALSE(R.AntEdge[G.inEdges(unsigned(UseNode))[0]]);
}

TEST(Anticipatability, Figure7MultiVariable) {
  // x + y anticipatable only where it is anticipatable relative to both
  // variables separately (Definition 9).
  auto F = parseFunctionOrDie(R"(
func fig7(p) {
entry:
  x = read()
  a = x * 2
  y = read()
  b = x + y
  ret a, b
}
)");
  // Single block version keeps the point visible at instruction
  // granularity; the property tests below cover control flow. Here just
  // check the conjunction machinery on a branchy variant.
  auto F2 = parseFunctionOrDie(R"(
func fig7b(p) {
entry:
  x = read()
  goto mid
mid:
  y = read()
  goto use
use:
  s = x + y
  ret s
}
)");
  CFGEdges E(*F2);
  Expression XPlusY = exprPlus(*F2, "x", "y");
  CFGAntResult Full;
  ASSERT_TRUE(runCFGAnticipatability(*F2, E, XPlusY, Full).ok());
  CFGAntResult RelX;
  ASSERT_TRUE(runCFGRelativeAnticipatability(*F2, E, XPlusY,
                                             unsigned(F2->lookupVar("x")), RelX)
                  .ok());
  CFGAntResult RelY;
  ASSERT_TRUE(runCFGRelativeAnticipatability(*F2, E, XPlusY,
                                             unsigned(F2->lookupVar("y")), RelY)
                  .ok());
  // Edge 0 (entry->mid): y is reassigned in mid, so rel-to-y is false but
  // rel-to-x is true. Edge 1 (mid->use): both true.
  EXPECT_TRUE(RelX.ANT[0]);
  EXPECT_FALSE(RelY.ANT[0]);
  EXPECT_FALSE(Full.ANT[0]);
  EXPECT_TRUE(RelX.ANT[1]);
  EXPECT_TRUE(RelY.ANT[1]);
  EXPECT_TRUE(Full.ANT[1]);

  DepFlowGraph G = DepFlowGraph::build(*F2);
  std::vector<bool> ViaDFG;
  ASSERT_TRUE(runExpressionAnticipatability(*F2, E, &G, XPlusY,
                                            EvalMode::SparseDFG, ViaDFG)
                  .ok());
  for (unsigned C = 0; C != E.size(); ++C)
    EXPECT_EQ(ViaDFG[C], Full.ANT[C]) << "edge " << C;
  (void)F;
}

TEST(AntPre, SparseAndDenseEnginesAgreeOnFigure6) {
  // The Figure 5a equations, the dense route and the sparse route of the
  // engine entry point must agree exactly, and so must the PRE decisions
  // placed from the sparse and the dense ANT.
  auto F = parseFunctionOrDie(Fig6Src);
  splitCriticalEdges(*F);
  CFGEdges E(*F);
  Expression XPlus1 = exprPlusImm(*F, "x", 1);
  DepFlowGraph G = DepFlowGraph::build(*F);

  CFGAntResult Eng;
  ASSERT_TRUE(runCFGAnticipatability(*F, E, XPlus1, Eng).ok());
  std::vector<bool> EngSparse;
  ASSERT_TRUE(runExpressionAnticipatability(*F, E, &G, XPlus1,
                                            EvalMode::SparseDFG, EngSparse)
                  .ok());
  std::vector<bool> EngDense;
  ASSERT_TRUE(runExpressionAnticipatability(*F, E, nullptr, XPlus1,
                                            EvalMode::DenseCFG, EngDense)
                  .ok());
  EXPECT_EQ(Eng.ANT, EngDense);
  EXPECT_EQ(EngSparse, EngDense);

  for (PREStrategy S : {PREStrategy::Busy, PREStrategy::MorelRenvoise}) {
    PREDecisions SparseD, DenseD;
    ASSERT_TRUE(runPRE(*F, E, XPlus1, EngSparse, S, SparseD).ok());
    ASSERT_TRUE(runPRE(*F, E, XPlus1, EngDense, S, DenseD).ok());
    EXPECT_EQ(SparseD.Deletes, DenseD.Deletes);
    ASSERT_EQ(SparseD.Inserts.size(), DenseD.Inserts.size());
    for (unsigned K = 0; K != SparseD.Inserts.size(); ++K) {
      EXPECT_EQ(SparseD.Inserts[K].Block, DenseD.Inserts[K].Block);
      EXPECT_EQ(SparseD.Inserts[K].AtEnd, DenseD.Inserts[K].AtEnd);
    }
  }
}

TEST(PRE, Figure6BusyCodeMotionIsSuperfluous) {
  // The paper's caveat: the simple strategy hoists x+1 to just below the
  // definition of x although the program had no redundancy; Morel-Renvoise
  // leaves it alone.
  auto F = parseFunctionOrDie(Fig6Src);
  splitCriticalEdges(*F);
  CFGEdges E(*F);
  Expression XPlus1 = exprPlusImm(*F, "x", 1);
  CFGAntResult Ant;
  ASSERT_TRUE(runCFGAnticipatability(*F, E, XPlus1, Ant).ok());

  PREDecisions BCM;
  ASSERT_TRUE(runPRE(*F, E, XPlus1, Ant.ANT, PREStrategy::Busy, BCM).ok());
  EXPECT_FALSE(BCM.Inserts.empty()) << "busy code motion hoists";
  EXPECT_EQ(BCM.Deletes.size(), 2u) << "both computations get replaced";

  PREDecisions MR;
  ASSERT_TRUE(
      runPRE(*F, E, XPlus1, Ant.ANT, PREStrategy::MorelRenvoise, MR).ok());
  EXPECT_TRUE(MR.Inserts.empty()) << "no partial redundancy, no motion";
  EXPECT_TRUE(MR.Deletes.empty());
}

TEST(PRE, ClassicDiamondPartialRedundancy) {
  // x+y computed in one arm and after the join: partially redundant. MR
  // inserts into the other arm and deletes the join computation.
  auto F = parseFunctionOrDie(R"(
func diamond(p, x, y) {
entry:
  if p goto a else b
a:
  u = x + y
  goto join
b:
  v = 1
  goto join
join:
  w = x + y
  ret u, v, w
}
)");
  splitCriticalEdges(*F);
  CFGEdges E(*F);
  Expression XPlusY = exprPlus(*F, "x", "y");
  CFGAntResult Ant;
  ASSERT_TRUE(runCFGAnticipatability(*F, E, XPlusY, Ant).ok());
  PREDecisions MR;
  ASSERT_TRUE(
      runPRE(*F, E, XPlusY, Ant.ANT, PREStrategy::MorelRenvoise, MR).ok());
  ASSERT_EQ(MR.Inserts.size(), 1u);
  EXPECT_EQ(MR.Inserts[0].Block->label(), "b");
  ASSERT_EQ(MR.Deletes.size(), 1u);

  // Apply and check dynamically: on the path through b the count stays 1;
  // through a it drops from 2 to... stays 2 (one in a, one inserted)? No:
  // through a: original computed u and w (2); after: u stays, insert only
  // in b, w becomes a copy -> 1. Through b: original 1 (w); after: 1 (the
  // insert).
  unsigned Replaced = applyPRE(*F, XPlusY, MR);
  EXPECT_EQ(Replaced, 1u);
  ASSERT_TRUE(isWellFormed(*F));
  ExecResult ThroughA = runFunction(*F, {1, 10, 20});
  ASSERT_TRUE(ThroughA.Halted);
  EXPECT_EQ(ThroughA.countOf(XPlusY), 1u);
  EXPECT_EQ(ThroughA.Outputs, (std::vector<std::int64_t>{30, 0, 30}));
  ExecResult ThroughB = runFunction(*F, {0, 10, 20});
  ASSERT_TRUE(ThroughB.Halted);
  EXPECT_EQ(ThroughB.countOf(XPlusY), 1u);
  EXPECT_EQ(ThroughB.Outputs, (std::vector<std::int64_t>{0, 1, 30}));
}

TEST(PRE, LoopInvariantHoisting) {
  // x+y is loop invariant in a do-while (bottom-exit) loop, so it is
  // anticipatable at loop entry and Morel-Renvoise hoists it. (A zero-trip
  // while loop would not be down-safe — MR correctly leaves those alone.)
  auto F = parseFunctionOrDie(R"(
func hoist(n, x, y) {
entry:
  s = 0
  goto body
body:
  u = x + y
  s = s + u
  n = n - 1
  t = n > 0
  if t goto body else out
out:
  ret s
}
)");
  splitCriticalEdges(*F);
  CFGEdges E(*F);
  Expression XPlusY = exprPlus(*F, "x", "y");
  CFGAntResult Ant;
  ASSERT_TRUE(runCFGAnticipatability(*F, E, XPlusY, Ant).ok());
  PREDecisions MR;
  ASSERT_TRUE(
      runPRE(*F, E, XPlusY, Ant.ANT, PREStrategy::MorelRenvoise, MR).ok());
  auto Before = runFunction(*F, {5, 3, 4});
  applyPRE(*F, XPlusY, MR);
  ASSERT_TRUE(isWellFormed(*F));
  auto After = runFunction(*F, {5, 3, 4});
  ASSERT_TRUE(Before.Halted && After.Halted);
  EXPECT_EQ(Before.Outputs, After.Outputs);
  EXPECT_EQ(Before.countOf(XPlusY), 5u);
  EXPECT_EQ(After.countOf(XPlusY), 1u) << printFunction(*F);
}

class AntPropertyTest : public ::testing::TestWithParam<int> {};

/// Params 30 to 49 are a ladder of random CFGs (irreducible ones
/// included) from 12 to 50 blocks; the others alternate structured
/// programs and 10-block random CFGs.
std::unique_ptr<Function> antProgram(int Param) {
  if (Param >= 30 && Param < 50)
    return generateRandomCFGProgram(std::uint64_t(Param) * 53 + 7,
                                    12 + 2 * unsigned(Param - 30), 45, 4, 2);
  if (Param % 2 == 0) {
    GenOptions Opts;
    Opts.Seed = std::uint64_t(Param) * 17 + 3;
    Opts.TargetStmts = 22;
    Opts.NumVars = 4;
    Opts.ReadPct = 25;
    return generateStructuredProgram(Opts);
  }
  return generateRandomCFGProgram(std::uint64_t(Param) * 41 + 13, 10, 45, 4,
                                  2);
}

TEST_P(AntPropertyTest, ProjectionMatchesCFGRelativeANT) {
  auto F = antProgram(GetParam());
  CFGEdges E(*F);
  DepFlowGraph G = DepFlowGraph::build(*F, E);
  const ProgramStructureTree PST(*F, E, cycleEquivalenceClasses(*F, E));
  for (const Expression &Expr : collectExpressions(*F)) {
    for (VarId X : Expr.variables()) {
      CFGAntResult CFG;
      ASSERT_TRUE(runCFGRelativeAnticipatability(*F, E, Expr, X, CFG).ok());
      DFGAntResult R;
      ASSERT_TRUE(runRelativeAnticipatability(*F, G, Expr, X, R).ok());
      std::vector<bool> Proj = projectRelativeAnt(*F, E, G, R, X, &PST);
      for (unsigned C = 0; C != E.size(); ++C)
        EXPECT_EQ(Proj[C], CFG.ANT[C])
            << "edge " << C << " (" << E.edge(C).From->label() << "->"
            << E.edge(C).To->label() << ") expr "
            << printExpression(*F, Expr) << " rel "
            << F->varName(X) << "\n"
            << printFunction(*F);
    }
  }
}

TEST_P(AntPropertyTest, PanProjectionMatchesCFGRelativePAN) {
  auto F = antProgram(GetParam());
  CFGEdges E(*F);
  DepFlowGraph G = DepFlowGraph::build(*F, E);
  const ProgramStructureTree PST(*F, E, cycleEquivalenceClasses(*F, E));
  for (const Expression &Expr : collectExpressions(*F)) {
    for (VarId X : Expr.variables()) {
      CFGAntResult CFG;
      ASSERT_TRUE(runCFGRelativeAnticipatability(*F, E, Expr, X, CFG).ok());
      DFGAntResult R;
      ASSERT_TRUE(runRelativeAnticipatability(*F, G, Expr, X, R).ok());
      std::vector<bool> Proj = projectRelativePan(*F, E, G, R, X, &PST);
      for (unsigned C = 0; C != E.size(); ++C)
        EXPECT_EQ(Proj[C], CFG.PAN[C])
            << "edge " << C << " expr " << printExpression(*F, Expr)
            << " rel " << F->varName(X) << "\n"
            << printFunction(*F);
    }
  }
}

TEST_P(AntPropertyTest, Definition9Decomposition) {
  auto F = antProgram(GetParam() + 1000);
  CFGEdges E(*F);
  for (const Expression &Expr : collectExpressions(*F)) {
    CFGAntResult Full;
    ASSERT_TRUE(runCFGAnticipatability(*F, E, Expr, Full).ok());
    std::vector<bool> Conj(E.size(), true);
    for (VarId X : Expr.variables()) {
      CFGAntResult Rel;
      ASSERT_TRUE(runCFGRelativeAnticipatability(*F, E, Expr, X, Rel).ok());
      for (unsigned C = 0; C != E.size(); ++C)
        Conj[C] = Conj[C] && Rel.ANT[C];
    }
    for (unsigned C = 0; C != E.size(); ++C)
      EXPECT_EQ(Conj[C], Full.ANT[C])
          << "edge " << C << " expr " << printExpression(*F, Expr) << "\n"
          << printFunction(*F);
  }
}

TEST_P(AntPropertyTest, DFGExpressionAntMatchesCFG) {
  auto F = antProgram(GetParam());
  CFGEdges E(*F);
  DepFlowGraph G = DepFlowGraph::build(*F, E);
  for (const Expression &Expr : collectExpressions(*F)) {
    CFGAntResult Full;
    ASSERT_TRUE(runCFGAnticipatability(*F, E, Expr, Full).ok());
    std::vector<bool> ViaDFG;
    ASSERT_TRUE(runExpressionAnticipatability(*F, E, &G, Expr,
                                              EvalMode::SparseDFG, ViaDFG)
                    .ok());
    for (unsigned C = 0; C != E.size(); ++C)
      EXPECT_EQ(ViaDFG[C], Full.ANT[C])
          << "edge " << C << " expr " << printExpression(*F, Expr) << "\n"
          << printFunction(*F);
  }
}

std::vector<std::vector<unsigned>> successorLists(const Function &F) {
  std::vector<std::vector<unsigned>> Succs(F.numBlocks());
  for (const auto &BB : F.blocks())
    for (const BasicBlock *S : BB->successors())
      Succs[BB->id()].push_back(S->id());
  return Succs;
}

/// Bit \p K of CFG edge \p C's row in \p Rows (\p W words per row).
bool rowBit(const std::vector<std::uint64_t> &Rows, unsigned W, unsigned C,
            unsigned K) {
  return Rows[std::size_t(C) * W + K / 64] >> (K % 64) & 1;
}

/// Every candidate's ANT in one batched sparse call.
std::vector<std::uint64_t> batchedAnt(Function &F, const CFGEdges &E,
                                      const DepFlowGraph &G,
                                      const CandidateSet &Cands) {
  std::vector<std::uint64_t> Rows(std::size_t(E.size()) * Cands.words());
  Status S = runBatchedAnticipatability(F, E, &G, Cands, EvalMode::SparseDFG,
                                        Rows);
  EXPECT_TRUE(S.ok()) << S.str();
  return Rows;
}

// One batched call must give every candidate exactly the ANT of a
// per-expression sparse solve, and of the Figure 5a equations.
TEST_P(AntPropertyTest, BatchedAntMatchesPerExpressionAnt) {
  auto F = antProgram(GetParam());
  splitCriticalEdges(*F);
  CFGEdges E(*F);
  DepFlowGraph G = DepFlowGraph::build(*F, E);
  const std::vector<Expression> Exprs = collectExpressions(*F);
  const CandidateSet Cands(*F, Exprs);
  const std::vector<std::uint64_t> Rows = batchedAnt(*F, E, G, Cands);
  for (unsigned K = 0; K != Exprs.size(); ++K) {
    std::vector<bool> Solo;
    ASSERT_TRUE(runExpressionAnticipatability(*F, E, &G, Exprs[K],
                                              EvalMode::SparseDFG, Solo)
                    .ok());
    CFGAntResult Full;
    ASSERT_TRUE(runCFGAnticipatability(*F, E, Exprs[K], Full).ok());
    for (unsigned C = 0; C != E.size(); ++C) {
      EXPECT_EQ(rowBit(Rows, Cands.words(), C, K), Solo[C])
          << "edge " << C << " expr " << printExpression(*F, Exprs[K]);
      EXPECT_EQ(Solo[C], Full.ANT[C])
          << "edge " << C << " expr " << printExpression(*F, Exprs[K]);
    }
  }
}

// The PRE pass solves every candidate's ANT once, before its first
// motion. Replay busy code motion in candidate order (it inserts at every
// frontier edge, the most edits): each motion keeps the CFG shape, and
// before each motion every candidate not yet moved has, solved afresh on
// a DFG of the edited function, the batched ANT from before the first.
TEST_P(AntPropertyTest, AntIsInvariantAcrossMotions) {
  auto F = antProgram(GetParam());
  splitCriticalEdges(*F);
  const std::vector<std::vector<unsigned>> Shape = successorLists(*F);
  const std::vector<Expression> Exprs = collectExpressions(*F);
  const CandidateSet Cands(*F, Exprs);
  CFGEdges E(*F);
  std::vector<std::uint64_t> Before;
  {
    DepFlowGraph G = DepFlowGraph::build(*F, E);
    Before = batchedAnt(*F, E, G, Cands);
  }
  for (unsigned Moved = 0; Moved != Exprs.size(); ++Moved) {
    DepFlowGraph G = DepFlowGraph::build(*F, E);
    for (unsigned K = Moved; K != Exprs.size(); ++K) {
      std::vector<bool> Now;
      ASSERT_TRUE(runExpressionAnticipatability(*F, E, &G, Exprs[K],
                                                EvalMode::SparseDFG, Now)
                      .ok());
      for (unsigned C = 0; C != E.size(); ++C)
        ASSERT_EQ(Now[C], rowBit(Before, Cands.words(), C, K))
            << "edge " << C << " expr " << printExpression(*F, Exprs[K])
            << " after " << Moved << " motions\n"
            << printFunction(*F);
    }
    std::vector<bool> Ant;
    ASSERT_TRUE(runExpressionAnticipatability(*F, E, &G, Exprs[Moved],
                                              EvalMode::SparseDFG, Ant)
                    .ok());
    PREDecisions D;
    ASSERT_TRUE(runPRE(*F, E, Exprs[Moved], Ant, PREStrategy::Busy, D).ok());
    applyPRE(*F, Exprs[Moved], D);
    ASSERT_EQ(successorLists(*F), Shape)
        << "expr " << printExpression(*F, Exprs[Moved]) << "\n"
        << printFunction(*F);
  }
}

// The batched sparse rows must equal the Figure 5a equations bit for bit
// on every edge, for batches that end inside a word, fill one, spill one
// bit into the next, and span three. The program has two variables, so at
// 130 candidates one variable is read by more than 64 of them and its
// solve runs in two words. Sparse and dense PRE decisions must agree for
// both strategies, and a batch must flip exactly as many DFG bits as the
// solo solves of its candidates together.
TEST(AntPre, BatchedRowsMatchCFGAcrossWords) {
  GenOptions Opts;
  Opts.Seed = 11;
  Opts.NumVars = 2;
  Opts.TargetStmts = 1500;
  auto F = generateStructuredProgram(Opts);
  splitCriticalEdges(*F);
  CFGEdges E(*F);
  DepFlowGraph G = DepFlowGraph::build(*F, E);
  const std::vector<Expression> All = collectExpressions(*F);
  ASSERT_GE(All.size(), 130u);

  auto Flips = [] { return statisticValue("ant", "NumAntDFGBitsFlipped"); };
  for (unsigned K : {63u, 64u, 65u, 130u}) {
    std::vector<Expression> Cands(All.begin(), All.begin() + K);
    std::reverse(Cands.begin(), Cands.end());
    const CandidateSet CS(*F, Cands);
    std::size_t MostReaders = 0;
    for (VarId V = 0; V != F->numVars(); ++V)
      MostReaders = std::max(MostReaders, CS.readers(V).size());
    if (K == 130) {
      EXPECT_GT(MostReaders, 64u) << "no variable solved in two words";
    }

    std::uint64_t Before = Flips();
    const std::vector<std::uint64_t> Rows = batchedAnt(*F, E, G, CS);
    const std::uint64_t BatchFlips = Flips() - Before;
    std::uint64_t SoloFlips = 0;
    for (unsigned C = 0; C != K; ++C) {
      Before = Flips();
      std::vector<bool> Solo;
      ASSERT_TRUE(runExpressionAnticipatability(*F, E, &G, Cands[C],
                                                EvalMode::SparseDFG, Solo)
                      .ok());
      SoloFlips += Flips() - Before;
      CFGAntResult Full;
      ASSERT_TRUE(runCFGAnticipatability(*F, E, Cands[C], Full).ok());
      for (unsigned Edge = 0; Edge != E.size(); ++Edge)
        ASSERT_EQ(rowBit(Rows, CS.words(), Edge, C), Full.ANT[Edge])
            << "K " << K << " edge " << Edge << " expr "
            << printExpression(*F, Cands[C]);
    }
    EXPECT_EQ(BatchFlips, SoloFlips) << "K " << K;

    std::vector<std::uint64_t> DenseRows(Rows.size());
    ASSERT_TRUE(runBatchedAnticipatability(*F, E, nullptr, CS,
                                           EvalMode::DenseCFG, DenseRows)
                    .ok());
    EXPECT_EQ(Rows, DenseRows) << "K " << K;
    for (PREStrategy S : {PREStrategy::Busy, PREStrategy::MorelRenvoise}) {
      std::vector<PREDecisions> Sparse, Dense;
      ASSERT_TRUE(runPRE(*F, E, CS, Rows, S, Sparse).ok());
      ASSERT_TRUE(runPRE(*F, E, CS, DenseRows, S, Dense).ok());
      for (unsigned C = 0; C != K; ++C) {
        EXPECT_EQ(Sparse[C].Deletes, Dense[C].Deletes) << "K " << K;
        ASSERT_EQ(Sparse[C].Inserts.size(), Dense[C].Inserts.size());
        for (unsigned I = 0; I != Dense[C].Inserts.size(); ++I) {
          EXPECT_EQ(Sparse[C].Inserts[I].Block, Dense[C].Inserts[I].Block);
          EXPECT_EQ(Sparse[C].Inserts[I].AtEnd, Dense[C].Inserts[I].AtEnd);
        }
      }
    }
  }
}

/// A function shaped like the `bigfn-opt` benchmark's: 48 variables, 150
/// statements, every variable read at entry.
std::unique_ptr<Function> bigFnProgram(int Param) {
  GenOptions Opts;
  Opts.Seed = std::uint64_t(Param) * 7717 + 5;
  Opts.NumVars = 48;
  Opts.TargetStmts = 150;
  auto F = generateStructuredProgram(Opts);
  for (unsigned V = 0; V != F->numVars(); ++V)
    F->entry()->insertAt(V, std::make_unique<ReadInst>(VarId(V)));
  return F;
}

// The PRE pass solves every candidate's ANT on one DFG, and then every
// candidate's placement in one batch, before its first motion. The
// reference is the per-motion driver it replaced, which built a fresh DFG
// of the current function before each candidate, placed that candidate
// alone and applied only non-empty decisions. Both must produce the same
// function text.
void checkOneGraphMatchesPerMotion(const std::string &Source) {
  for (PREStrategy Strategy : {PREStrategy::Busy, PREStrategy::MorelRenvoise}) {
    auto Ref = parseFunctionOrDie(Source);
    splitCriticalEdges(*Ref);
    for (const Expression &Expr : collectExpressions(*Ref)) {
      CFGEdges E(*Ref);
      DepFlowGraph G = DepFlowGraph::build(*Ref, E);
      std::vector<bool> Ant;
      ASSERT_TRUE(runExpressionAnticipatability(*Ref, E, &G, Expr,
                                                EvalMode::SparseDFG, Ant)
                      .ok());
      PREDecisions D;
      ASSERT_TRUE(runPRE(*Ref, E, Expr, Ant, Strategy, D).ok());
      if (!D.Inserts.empty() || !D.Deletes.empty())
        applyPRE(*Ref, Expr, D);
    }

    auto Pass = parseFunctionOrDie(Source);
    FunctionAnalysisManager AM(*Pass);
    PassId P =
        Strategy == PREStrategy::Busy ? PassId::PREBusy : PassId::PRE;
    Status S = runPass(*Pass, P, AM);
    ASSERT_TRUE(S.ok()) << S.str();
    EXPECT_EQ(printFunction(*Pass), printFunction(*Ref))
        << "pass --" << passName(P) << " on\n" << Source;
  }
}

TEST_P(AntPropertyTest, OneGraphPREMatchesPerMotionRebuild) {
  checkOneGraphMatchesPerMotion(printFunction(*antProgram(GetParam())));
  checkOneGraphMatchesPerMotion(printFunction(*bigFnProgram(GetParam())));
}

// One placement solve for many candidates must equal one solve per
// candidate: the same decisions, and the same NumPREBitsFlipped total.
// The batch sizes straddle the 64-bit words of the batch's rows, and the
// batch takes the candidates in reverse, so bit k is not the k-th
// expression of the function.
TEST(PRE, BatchMatchesOneCandidateAtATime) {
  GenOptions Opts;
  Opts.Seed = 5;
  Opts.NumVars = 6;
  Opts.TargetStmts = 1100;
  auto F = generateStructuredProgram(Opts);
  splitCriticalEdges(*F);
  CFGEdges E(*F);
  const std::vector<Expression> All = collectExpressions(*F);
  ASSERT_GE(All.size(), 130u);

  auto Flips = [] { return statisticValue("pre", "NumPREBitsFlipped"); };
  for (unsigned K : {1u, 63u, 64u, 65u, 130u}) {
    std::vector<Expression> Cands(All.begin(), All.begin() + K);
    std::reverse(Cands.begin(), Cands.end());
    const CandidateSet CS(*F, Cands);
    std::vector<std::uint64_t> Rows(std::size_t(E.size()) * CS.words());
    ASSERT_TRUE(runBatchedAnticipatability(*F, E, nullptr, CS,
                                           EvalMode::DenseCFG, Rows)
                    .ok());
    std::vector<std::vector<bool>> Ants(K);
    for (unsigned C = 0; C != K; ++C)
      ASSERT_TRUE(runExpressionAnticipatability(*F, E, nullptr, Cands[C],
                                                EvalMode::DenseCFG, Ants[C])
                      .ok());
    for (PREStrategy S : {PREStrategy::Busy, PREStrategy::MorelRenvoise}) {
      std::uint64_t Before = Flips();
      std::vector<PREDecisions> Batch;
      ASSERT_TRUE(runPRE(*F, E, CS, Rows, S, Batch).ok());
      const std::uint64_t BatchFlips = Flips() - Before;
      ASSERT_EQ(Batch.size(), K);

      std::uint64_t SoloFlips = 0;
      unsigned Moves = 0;
      for (unsigned C = 0; C != K; ++C) {
        Before = Flips();
        PREDecisions Solo;
        ASSERT_TRUE(runPRE(*F, E, Cands[C], Ants[C], S, Solo).ok());
        SoloFlips += Flips() - Before;
        Moves += unsigned(Solo.Inserts.size() + Solo.Deletes.size());
        EXPECT_EQ(Batch[C].Deletes, Solo.Deletes)
            << "K " << K << " expr " << printExpression(*F, Cands[C]);
        ASSERT_EQ(Batch[C].Inserts.size(), Solo.Inserts.size())
            << "K " << K << " expr " << printExpression(*F, Cands[C]);
        for (unsigned I = 0; I != Solo.Inserts.size(); ++I) {
          EXPECT_EQ(Batch[C].Inserts[I].Block, Solo.Inserts[I].Block);
          EXPECT_EQ(Batch[C].Inserts[I].AtEnd, Solo.Inserts[I].AtEnd);
        }
      }
      EXPECT_EQ(BatchFlips, SoloFlips) << "K " << K;
      if (K >= 63) {
        EXPECT_GT(Moves, 0u) << "K " << K << ": nothing to compare";
      }
    }
  }
}

/// Both strategies must preserve semantics and never increase the dynamic
/// evaluation count of the expression on any run.
void checkPRESafety(int Param, bool UseMR, bool UseDFGAnt) {
  auto F = antProgram(Param);
  splitCriticalEdges(*F);
  std::vector<Expression> Exprs = collectExpressions(*F);
  if (Exprs.empty())
    return;
  const Expression Expr = Exprs[unsigned(Param) % Exprs.size()];

  auto Clone = parseFunctionOrDie(printFunction(*F));
  CFGEdges E(*Clone);
  std::vector<bool> Ant;
  if (UseDFGAnt) {
    DepFlowGraph G = DepFlowGraph::build(*Clone, E);
    ASSERT_TRUE(runExpressionAnticipatability(*Clone, E, &G, Expr,
                                              EvalMode::SparseDFG, Ant)
                    .ok());
  } else {
    CFGAntResult CFG;
    ASSERT_TRUE(runCFGAnticipatability(*Clone, E, Expr, CFG).ok());
    Ant = CFG.ANT;
  }
  PREDecisions D;
  ASSERT_TRUE(runPRE(*Clone, E, Expr, Ant,
                     UseMR ? PREStrategy::MorelRenvoise : PREStrategy::Busy, D)
                  .ok());
  applyPRE(*Clone, Expr, D);
  ASSERT_TRUE(isWellFormed(*Clone)) << printFunction(*Clone);

  RNG Rand(std::uint64_t(Param) * 7919 + 11);
  // Same outputs, and never more evaluations of Expr on any input.
  std::vector<Expression> Watched{Expr};
  OracleOptions OO;
  OO.NoNewComputationsOf = &Watched;
  Status S = diffExecutions(*F, *Clone, Rand, OO);
  EXPECT_TRUE(S.ok()) << "expr " << printExpression(*F, Expr) << ": "
                      << S.str();
}

TEST_P(AntPropertyTest, BusyCodeMotionIsSafe) {
  checkPRESafety(GetParam(), /*UseMR=*/false, /*UseDFGAnt=*/false);
}

TEST_P(AntPropertyTest, BusyCodeMotionWithDFGAntIsSafe) {
  checkPRESafety(GetParam(), /*UseMR=*/false, /*UseDFGAnt=*/true);
}

TEST_P(AntPropertyTest, MorelRenvoiseIsSafe) {
  checkPRESafety(GetParam(), /*UseMR=*/true, /*UseDFGAnt=*/false);
}

TEST_P(AntPropertyTest, MorelRenvoiseWithDFGAntIsSafe) {
  checkPRESafety(GetParam(), /*UseMR=*/true, /*UseDFGAnt=*/true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AntPropertyTest, ::testing::Range(0, 50));

} // namespace
