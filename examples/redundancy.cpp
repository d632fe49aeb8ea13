//===- examples/redundancy.cpp - Section 5: ANT/PAN and PRE ---------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
// Reproduces the Figure 6/7 anticipatability computations and contrasts
// the two PRE strategies the paper discusses: busy code motion ("insert
// wherever anticipatable") vs Morel-Renvoise placement.
//
//===----------------------------------------------------------------------===//

#include "dataflow/Anticipatability.h"
#include "dataflow/PRE.h"
#include "interp/Interpreter.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Transforms.h"

#include <cstdio>
#include <cstdlib>

using namespace depflow;

// Example/bench sources are author-controlled, so a parse error is a bug
// here, not user input: report it on the diagnostic path and bail.
static std::unique_ptr<Function> parseOrDie(std::string_view Src) {
  ParseResult R = parseFunction(Src);
  if (!R.ok()) {
    std::fprintf(stderr, "parse error: %s\n%s", R.Error.c_str(),
                 sourceExcerpt(Src, R.ErrorLine).c_str());
    std::exit(1);
  }
  return std::move(R.Fn);
}

static void printAnt(Function &F, const CFGEdges &E, const char *Name,
                     const std::vector<bool> &Ant) {
  std::printf("  %s:", Name);
  for (unsigned C = 0; C != E.size(); ++C)
    if (Ant[C])
      std::printf("  %s->%s", E.edge(C).From->label().c_str(),
                  E.edge(C).To->label().c_str());
  std::printf("\n");
}

int main() {
  // Figure 6: x+1 anticipatable below the definition of x; no redundancy.
  auto F6 = parseOrDie(R"(
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
)");
  std::printf("=== Figure 6: single-variable anticipatability ===\n%s\n",
              printFunction(*F6).c_str());
  CFGEdges E6(*F6);
  Expression XPlus1{BinOp::Add,
                    Operand::var(unsigned(F6->lookupVar("x"))),
                    Operand::imm(1)};
  CFGAntResult A6;
  if (!runCFGAnticipatability(*F6, E6, XPlus1, A6).ok())
    return 1;
  printAnt(*F6, E6, "ANT(x+1) via CFG", A6.ANT);
  DepFlowGraph G6 = DepFlowGraph::build(*F6);
  std::vector<bool> D6;
  if (!runExpressionAnticipatability(*F6, E6, &G6, XPlus1,
                                     EvalMode::SparseDFG, D6)
           .ok())
    return 1;
  printAnt(*F6, E6, "ANT(x+1) via DFG", D6);

  // Figure 7: multivariable x+y = conjunction of per-variable results.
  auto F7 = parseOrDie(R"(
func fig7(p) {
entry:
  x = read()
  goto mid
mid:
  a = x * 3
  y = read()
  goto low
low:
  s = x + y
  ret a, s
}
)");
  std::printf("\n=== Figure 7: multivariable anticipatability ===\n%s\n",
              printFunction(*F7).c_str());
  CFGEdges E7(*F7);
  Expression XPlusY{BinOp::Add,
                    Operand::var(unsigned(F7->lookupVar("x"))),
                    Operand::var(unsigned(F7->lookupVar("y")))};
  DepFlowGraph G7 = DepFlowGraph::build(*F7);
  for (VarId V : XPlusY.variables()) {
    DFGAntResult R;
    if (!runRelativeAnticipatability(*F7, G7, XPlusY, V, R).ok())
      return 1;
    printAnt(*F7, E7,
             ("ANT(x+y) relative to " + F7->varName(V)).c_str(),
             projectRelativeAnt(*F7, E7, G7, R, V));
  }
  std::vector<bool> D7;
  if (!runExpressionAnticipatability(*F7, E7, &G7, XPlusY,
                                     EvalMode::SparseDFG, D7)
           .ok())
    return 1;
  printAnt(*F7, E7, "ANT(x+y) combined  ", D7);

  // PRE: busy code motion vs Morel-Renvoise on a partially redundant
  // diamond.
  auto FD = parseOrDie(R"(
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
  std::printf("\n=== PRE on a partially redundant diamond ===\n%s\n",
              printFunction(*FD).c_str());
  splitCriticalEdges(*FD);
  CFGEdges ED(*FD);
  Expression EXY{BinOp::Add, Operand::var(unsigned(FD->lookupVar("x"))),
                 Operand::var(unsigned(FD->lookupVar("y")))};
  DepFlowGraph GD = DepFlowGraph::build(*FD, ED);
  std::vector<bool> Ant;
  if (!runExpressionAnticipatability(*FD, ED, &GD, EXY, EvalMode::SparseDFG,
                                     Ant)
           .ok())
    return 1;
  PREDecisions BCM, MR;
  if (!runPRE(*FD, ED, EXY, Ant, PREStrategy::Busy, BCM).ok() ||
      !runPRE(*FD, ED, EXY, Ant, PREStrategy::MorelRenvoise, MR).ok())
    return 1;
  std::printf("busy code motion : %zu inserts, %zu deletes\n",
              BCM.Inserts.size(), BCM.Deletes.size());
  std::printf("Morel-Renvoise   : %zu inserts, %zu deletes\n",
              MR.Inserts.size(), MR.Deletes.size());
  ExecResult Before = runFunction(*FD, {1, 10, 20});
  applyPRE(*FD, EXY, MR);
  std::printf("\n--- after Morel-Renvoise ---\n%s\n",
              printFunction(*FD).c_str());
  ExecResult After = runFunction(*FD, {1, 10, 20});
  std::printf("x+y evaluations on the computing path: %llu -> %llu\n",
              (unsigned long long)Before.countOf(EXY),
              (unsigned long long)After.countOf(EXY));
  return Before.Outputs == After.Outputs ? 0 : 1;
}
