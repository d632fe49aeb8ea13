//===- tests/misc_test.cpp - Liveness, arithmetic, printer details --------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "dataflow/Liveness.h"
#include "interp/Interpreter.h"
#include "ir/Expression.h"
#include "ParseOrDie.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "support/GraphWriter.h"
#include "workload/Generators.h"

#include <gtest/gtest.h>

#include <climits>

using namespace depflow;

namespace {

TEST(Arithmetic, DivisionIsTotal) {
  EXPECT_EQ(evalBinOp(BinOp::Div, 7, 0), 0);
  EXPECT_EQ(evalBinOp(BinOp::Div, INT64_MIN, -1), INT64_MIN);
  EXPECT_EQ(evalBinOp(BinOp::Div, 7, 2), 3);
  EXPECT_EQ(evalBinOp(BinOp::Div, -7, 2), -3);
}

TEST(Arithmetic, WrapsOnOverflow) {
  EXPECT_EQ(evalBinOp(BinOp::Add, INT64_MAX, 1), INT64_MIN);
  EXPECT_EQ(evalBinOp(BinOp::Mul, INT64_MAX, 2), -2);
  EXPECT_EQ(evalUnOp(UnOp::Neg, INT64_MIN), INT64_MIN);
}

TEST(Arithmetic, LogicalOperators) {
  EXPECT_EQ(evalBinOp(BinOp::And, 5, 0), 0);
  EXPECT_EQ(evalBinOp(BinOp::And, -1, 3), 1);
  EXPECT_EQ(evalBinOp(BinOp::Or, 0, 0), 0);
  EXPECT_EQ(evalBinOp(BinOp::Or, 0, 9), 1);
  EXPECT_EQ(evalUnOp(UnOp::Not, 0), 1);
  EXPECT_EQ(evalUnOp(UnOp::Not, 42), 0);
}

TEST(Expression, IdentityAndVariables) {
  Expression A{BinOp::Add, Operand::var(1), Operand::var(2)};
  Expression B{BinOp::Add, Operand::var(1), Operand::var(2)};
  Expression C{BinOp::Add, Operand::var(2), Operand::var(1)};
  EXPECT_EQ(A, B);
  EXPECT_FALSE(A == C) << "not commutative-normalized by design";
  EXPECT_TRUE(A < C || C < A);
  auto Vars = [](const Expression &X) {
    const ExprVars Vs = X.variables();
    return std::vector<VarId>(Vs.begin(), Vs.end());
  };
  EXPECT_EQ(Vars(A), (std::vector<VarId>{1, 2}));
  Expression D{BinOp::Mul, Operand::var(3), Operand::var(3)};
  EXPECT_EQ(Vars(D), (std::vector<VarId>{3}));
  EXPECT_TRUE(D.uses(3));
  EXPECT_FALSE(D.uses(1));
  Expression I{BinOp::Add, Operand::imm(1), Operand::imm(2)};
  EXPECT_TRUE(I.variables().empty());
}

TEST(Liveness, StraightLine) {
  auto F = parseFunctionOrDie(R"(
func f(a) {
entry:
  x = a + 1
  y = x * 2
  ret y
}
)");
  Liveness L = computeLiveness(*F);
  VarId A = unsigned(F->lookupVar("a"));
  VarId X = unsigned(F->lookupVar("x"));
  VarId Y = unsigned(F->lookupVar("y"));
  EXPECT_TRUE(L.liveIn(F->entry(), A));
  EXPECT_FALSE(L.liveIn(F->entry(), X));
  EXPECT_FALSE(L.liveIn(F->entry(), Y));
  EXPECT_FALSE(L.liveOut(F->entry(), A));
}

TEST(Liveness, LoopKeepsCarriedVariablesLive) {
  auto F = parseFunctionOrDie(R"(
func f(n) {
entry:
  s = 0
  goto head
head:
  t = n > 0
  if t goto body else out
body:
  s = s + n
  n = n - 1
  goto head
out:
  ret s
}
)");
  Liveness L = computeLiveness(*F);
  VarId S = unsigned(F->lookupVar("s"));
  VarId N = unsigned(F->lookupVar("n"));
  VarId T = unsigned(F->lookupVar("t"));
  BasicBlock *Head = F->block(1);
  EXPECT_TRUE(L.liveIn(Head, S));
  EXPECT_TRUE(L.liveIn(Head, N));
  EXPECT_FALSE(L.liveIn(Head, T)) << "t is dead at the head";
  BasicBlock *Body = F->block(2);
  EXPECT_TRUE(L.liveOut(Body, S));
  EXPECT_TRUE(L.liveOut(Body, N));
}

TEST(Liveness, MatchesDefinitionOnRandomPrograms) {
  // live-in(B, v) iff some path from B's start reaches a use of v with no
  // intervening def — checked against a direct per-variable search.
  for (std::uint64_t Seed = 0; Seed < 10; ++Seed) {
    auto F = generateRandomCFGProgram(Seed * 5 + 1, 9, 50, 4, 2);
    Liveness L = computeLiveness(*F);
    for (const auto &BB : F->blocks()) {
      for (VarId V = 0; V != F->numVars(); ++V) {
        // Direct search: BFS over (block, offset) states.
        bool Expected = false;
        std::vector<bool> Seen(F->numBlocks(), false);
        std::vector<BasicBlock *> Stack{BB.get()};
        Seen[BB->id()] = true;
        while (!Stack.empty() && !Expected) {
          BasicBlock *Cur = Stack.back();
          Stack.pop_back();
          bool Killed = false;
          for (const auto &I : Cur->instructions()) {
            for (const Operand &Op : I->operands())
              if (Op.isVar() && Op.var() == V)
                Expected = true;
            if (Expected)
              break;
            if (const auto *D = dyn_cast<DefInst>(I.get()))
              if (D->def() == V) {
                Killed = true;
                break;
              }
          }
          if (Expected || Killed)
            continue;
          for (BasicBlock *S : Cur->successors())
            if (!Seen[S->id()]) {
              Seen[S->id()] = true;
              Stack.push_back(S);
            }
        }
        EXPECT_EQ(L.liveIn(BB.get(), V), Expected)
            << "block " << BB->label() << " var " << F->varName(V)
            << " seed " << Seed;
      }
    }
  }
}

TEST(GraphWriter, EscapesAndStructure) {
  GraphWriter GW("g\"1");
  GW.node("a", "line1\nline2");
  GW.edge("a", "b", "x\"y");
  GW.raw("rankdir=LR;");
  std::string S = GW.str();
  EXPECT_NE(S.find("digraph \"g\\\"1\""), std::string::npos);
  EXPECT_NE(S.find("line1\\nline2"), std::string::npos);
  EXPECT_NE(S.find("x\\\"y"), std::string::npos);
  EXPECT_NE(S.find("rankdir=LR;"), std::string::npos);
}

TEST(Printer, NegativeImmediatesRoundTrip) {
  auto F = parseFunctionOrDie(R"(
func f() {
b:
  x = -9223372036854775807
  y = x + -1
  ret x, y
}
)");
  std::string P1 = printFunction(*F);
  auto F2 = parseFunctionOrDie(P1);
  EXPECT_EQ(printFunction(*F2), P1);
  ExecResult R = runFunction(*F, {});
  ASSERT_TRUE(R.Halted);
  EXPECT_EQ(R.Outputs[0], -9223372036854775807LL);
}

TEST(Interpreter, ParamsThenReadsShareInputStream) {
  auto F = parseFunctionOrDie(R"(
func f(a, b) {
e:
  c = read()
  d = read()
  ret a, b, c, d
}
)");
  ExecResult R = runFunction(*F, {10, 20, 30});
  ASSERT_TRUE(R.Halted);
  EXPECT_EQ(R.Outputs, (std::vector<std::int64_t>{10, 20, 30, 0}))
      << "exhausted reads yield 0";
}

} // namespace
