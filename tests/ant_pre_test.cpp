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
#include "pass/AnalysisManager.h"
#include "pass/PassPipeline.h"
#include "workload/Generators.h"

#include <gtest/gtest.h>

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

  CFGAntResult CFG = cfgAnticipatability(*F, E, XPlus1);
  // Anticipatable on the two branch edges (each path ahead computes x+1
  // before any assignment to x); not on the join edges — the computations
  // are behind by then.
  EXPECT_TRUE(CFG.ANT[0]);
  EXPECT_TRUE(CFG.ANT[1]);
  EXPECT_FALSE(CFG.ANT[2]);
  EXPECT_FALSE(CFG.ANT[3]);

  DepFlowGraph G = DepFlowGraph::build(*F);
  DFGAntResult R = dfgRelativeAnticipatability(*F, G, XPlus1, X);
  std::vector<bool> Proj =
      projectRelativeAnt(*F, E, G, R, X, ProjectionContext(*F, E));
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
  CFGAntResult Full = cfgAnticipatability(*F2, E, XPlusY);
  CFGAntResult RelX = cfgRelativeAnticipatability(
      *F2, E, XPlusY, unsigned(F2->lookupVar("x")));
  CFGAntResult RelY = cfgRelativeAnticipatability(
      *F2, E, XPlusY, unsigned(F2->lookupVar("y")));
  // Edge 0 (entry->mid): y is reassigned in mid, so rel-to-y is false but
  // rel-to-x is true. Edge 1 (mid->use): both true.
  EXPECT_TRUE(RelX.ANT[0]);
  EXPECT_FALSE(RelY.ANT[0]);
  EXPECT_FALSE(Full.ANT[0]);
  EXPECT_TRUE(RelX.ANT[1]);
  EXPECT_TRUE(RelY.ANT[1]);
  EXPECT_TRUE(Full.ANT[1]);

  DepFlowGraph G = DepFlowGraph::build(*F2);
  std::vector<bool> ViaDFG = dfgExpressionAnt(*F2, E, G, XPlusY);
  for (unsigned C = 0; C != E.size(); ++C)
    EXPECT_EQ(ViaDFG[C], Full.ANT[C]) << "edge " << C;
  (void)F;
}

TEST(AntPre, EngineAndShimPathsAgreeOnFigure6) {
  // The deprecated shims and the Status-returning entry points must agree
  // exactly — both paths stay covered until the shims are removed.
  auto F = parseFunctionOrDie(Fig6Src);
  splitCriticalEdges(*F);
  CFGEdges E(*F);
  Expression XPlus1 = exprPlusImm(*F, "x", 1);
  DepFlowGraph G = DepFlowGraph::build(*F);

  CFGAntResult Shim = cfgAnticipatability(*F, E, XPlus1);
  CFGAntResult Eng;
  ASSERT_TRUE(runCFGAnticipatability(*F, E, XPlus1, Eng).ok());
  EXPECT_EQ(Shim.ANT, Eng.ANT);

  std::vector<bool> ShimDfg = dfgExpressionAnt(*F, E, G, XPlus1);
  std::vector<bool> EngSparse;
  ASSERT_TRUE(runExpressionAnticipatability(*F, E, &G, XPlus1,
                                            EvalMode::SparseDFG, EngSparse)
                  .ok());
  EXPECT_EQ(ShimDfg, EngSparse);
  std::vector<bool> EngDense;
  ASSERT_TRUE(runExpressionAnticipatability(*F, E, nullptr, XPlus1,
                                            EvalMode::DenseCFG, EngDense)
                  .ok());
  EXPECT_EQ(EngSparse, EngDense);

  for (PREStrategy S : {PREStrategy::Busy, PREStrategy::MorelRenvoise}) {
    PREDecisions ShimD = S == PREStrategy::Busy
                             ? busyCodeMotion(*F, E, XPlus1, Eng.ANT)
                             : morelRenvoise(*F, E, XPlus1, Eng.ANT);
    PREDecisions EngD;
    ASSERT_TRUE(runPRE(*F, E, XPlus1, Eng.ANT, S, EngD).ok());
    EXPECT_EQ(ShimD.Deletes, EngD.Deletes);
    ASSERT_EQ(ShimD.Inserts.size(), EngD.Inserts.size());
    for (unsigned K = 0; K != ShimD.Inserts.size(); ++K) {
      EXPECT_EQ(ShimD.Inserts[K].Block, EngD.Inserts[K].Block);
      EXPECT_EQ(ShimD.Inserts[K].AtEnd, EngD.Inserts[K].AtEnd);
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
  CFGAntResult Ant = cfgAnticipatability(*F, E, XPlus1);

  PREDecisions BCM = busyCodeMotion(*F, E, XPlus1, Ant.ANT);
  EXPECT_FALSE(BCM.Inserts.empty()) << "busy code motion hoists";
  EXPECT_EQ(BCM.Deletes.size(), 2u) << "both computations get replaced";

  PREDecisions MR = morelRenvoise(*F, E, XPlus1, Ant.ANT);
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
  CFGAntResult Ant = cfgAnticipatability(*F, E, XPlusY);
  PREDecisions MR = morelRenvoise(*F, E, XPlusY, Ant.ANT);
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
  CFGAntResult Ant = cfgAnticipatability(*F, E, XPlusY);
  PREDecisions MR = morelRenvoise(*F, E, XPlusY, Ant.ANT);
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

std::unique_ptr<Function> antProgram(int Param) {
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
  ProjectionContext Ctx(*F, E);
  std::vector<Expression> Exprs = collectExpressions(*F);
  unsigned Tested = 0;
  for (const Expression &Expr : Exprs) {
    if (++Tested > 4)
      break;
    for (VarId X : Expr.variables()) {
      CFGAntResult CFG = cfgRelativeAnticipatability(*F, E, Expr, X);
      DFGAntResult R = dfgRelativeAnticipatability(*F, G, Expr, X);
      std::vector<bool> Proj = projectRelativeAnt(*F, E, G, R, X, Ctx);
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
  ProjectionContext Ctx(*F, E);
  unsigned Tested = 0;
  for (const Expression &Expr : collectExpressions(*F)) {
    if (++Tested > 3)
      break;
    for (VarId X : Expr.variables()) {
      CFGAntResult CFG = cfgRelativeAnticipatability(*F, E, Expr, X);
      DFGAntResult R = dfgRelativeAnticipatability(*F, G, Expr, X);
      std::vector<bool> Proj = projectRelativePan(*F, E, G, R, X, Ctx);
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
    CFGAntResult Full = cfgAnticipatability(*F, E, Expr);
    std::vector<bool> Conj(E.size(), true);
    for (VarId X : Expr.variables()) {
      CFGAntResult Rel = cfgRelativeAnticipatability(*F, E, Expr, X);
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
  unsigned Tested = 0;
  for (const Expression &Expr : collectExpressions(*F)) {
    if (++Tested > 4)
      break;
    CFGAntResult Full = cfgAnticipatability(*F, E, Expr);
    std::vector<bool> ViaDFG = dfgExpressionAnt(*F, E, G, Expr);
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

// A projection context depends only on the CFG shape, which motions keep.
// Replay a motion loop: after each motion, ANT through the context built
// before the first one must equal ANT through a context built fresh for
// the edited function.
TEST_P(AntPropertyTest, SharedProjectionContextMatchesFresh) {
  auto F = antProgram(GetParam());
  splitCriticalEdges(*F);
  std::optional<ProjectionContext> Shared;
  for (const Expression &Expr : collectExpressions(*F)) {
    CFGEdges E(*F);
    DepFlowGraph G = DepFlowGraph::build(*F, E);
    if (!Shared)
      Shared.emplace(*F, E);
    std::vector<bool> ViaShared, ViaFresh;
    ASSERT_TRUE(runExpressionAnticipatability(*F, E, &G, Expr,
                                              EvalMode::SparseDFG, ViaShared,
                                              /*Pan=*/nullptr, &*Shared)
                    .ok());
    ASSERT_TRUE(runExpressionAnticipatability(*F, E, &G, Expr,
                                              EvalMode::SparseDFG, ViaFresh)
                    .ok());
    EXPECT_EQ(ViaShared, ViaFresh)
        << "expr " << printExpression(*F, Expr) << "\n"
        << printFunction(*F);
    applyPRE(*F, Expr, morelRenvoise(*F, E, Expr, ViaFresh));
  }
}

// The premise of sharing the context: code motion edits instructions only.
TEST_P(AntPropertyTest, ApplyPREKeepsSuccessorLists) {
  auto F = antProgram(GetParam());
  splitCriticalEdges(*F);
  const std::vector<std::vector<unsigned>> Shape = successorLists(*F);
  for (const Expression &Expr : collectExpressions(*F)) {
    CFGEdges E(*F);
    std::vector<bool> Ant = cfgAnticipatability(*F, E, Expr).ANT;
    // Busy code motion inserts at every frontier edge: the most edits.
    applyPRE(*F, Expr, busyCodeMotion(*F, E, Expr, Ant));
    ASSERT_EQ(successorLists(*F), Shape)
        << "expr " << printExpression(*F, Expr) << "\n"
        << printFunction(*F);
  }
}

// The PRE pass solves every candidate's ANT on one DFG before its first
// motion. The reference is the per-motion driver it replaced, which built
// a fresh DFG of the current function before each candidate and applied
// only non-empty decisions. Both must produce the same function text.
TEST_P(AntPropertyTest, OneGraphPREMatchesPerMotionRebuild) {
  const std::string Source = printFunction(*antProgram(GetParam()));
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
    Ant = dfgExpressionAnt(*Clone, E, G, Expr);
  } else {
    Ant = cfgAnticipatability(*Clone, E, Expr).ANT;
  }
  PREDecisions D = UseMR ? morelRenvoise(*Clone, E, Expr, Ant)
                         : busyCodeMotion(*Clone, E, Expr, Ant);
  applyPRE(*Clone, Expr, D);
  ASSERT_TRUE(isWellFormed(*Clone)) << printFunction(*Clone);

  RNG Rand(std::uint64_t(Param) * 7919 + 11);
  for (int Trial = 0; Trial < 5; ++Trial) {
    std::vector<std::int64_t> Inputs;
    for (int K = 0; K < 12; ++K)
      Inputs.push_back(Rand.nextInRange(-3, 3));
    ExecResult Before = runFunction(*F, Inputs, 20000);
    if (!Before.Halted)
      continue;
    ExecResult After = runFunction(*Clone, Inputs, 30000);
    ASSERT_TRUE(After.Halted);
    EXPECT_EQ(Before.Outputs, After.Outputs)
        << printFunction(*F) << "=>\n" << printFunction(*Clone);
    EXPECT_LE(After.countOf(Expr), Before.countOf(Expr))
        << "expr " << printExpression(*F, Expr) << "\n"
        << printFunction(*F) << "=>\n" << printFunction(*Clone);
  }
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

INSTANTIATE_TEST_SUITE_P(Seeds, AntPropertyTest, ::testing::Range(0, 30));

} // namespace
