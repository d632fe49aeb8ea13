//===- bench/bench_predicate_ext.cpp - Experiment A2 ----------------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
// A2 (Section 4 extension): the Multiflow predicate refinement — `if
// (x == c)` propagates x = c into the true side. The workload is a chain
// of equality-guarded segments; the counters show the extra constants the
// refinement finds (identically in the CFG and DFG engines) at essentially
// no extra cost.
//
//===----------------------------------------------------------------------===//

#include "dataflow/ConstantPropagation.h"
#include "ir/Function.h"

#include "obs/BenchMain.h"

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <vector>

using namespace depflow;

/// K segments: each reads x, tests x == k, and uses x under the guard.
static std::unique_ptr<Function> makePredicateChain(unsigned K) {
  auto F = std::make_unique<Function>("predchain");
  VarId X = F->makeVar("x");
  VarId T = F->makeVar("t");
  VarId Acc = F->makeVar("acc");
  F->addParam(X);
  BasicBlock *Cur = F->makeBlock("entry");
  for (unsigned I = 0; I != K; ++I) {
    std::string N = std::to_string(I);
    BasicBlock *Hit = F->makeBlock("hit" + N);
    BasicBlock *Join = F->makeBlock("join" + N);
    Cur->appendRead(X);
    Cur->appendBinary(T, BinOp::Eq, Operand::var(X),
                      Operand::imm(std::int64_t(I)));
    Cur->setCondBr(Operand::var(T), Hit, Join);
    // Under the guard, x is the constant I.
    Hit->appendBinary(Acc, BinOp::Add, Operand::var(Acc), Operand::var(X));
    Hit->setJump(Join);
    Cur = Join;
  }
  Cur->setRet(std::vector<Operand>{Operand::var(Acc)});
  F->recomputePreds();
  return F;
}

// Engine front door with the bench's abort-on-failure convention.
static ConstPropResult solveCP(Function &F, const DepFlowGraph *G,
                               EvalMode Mode, bool Refined) {
  ConstPropResult R;
  if (!runConstantPropagation(F, G, Mode, R, Refined).ok())
    std::abort();
  return R;
}

static void BM_Predicate_CFG_Plain(benchmark::State &State) {
  auto F = makePredicateChain(unsigned(State.range(0)));
  for (auto _ : State) {
    ConstPropResult R = solveCP(*F, nullptr, EvalMode::DenseCFG, false);
    benchmark::DoNotOptimize(R.size());
  }
  State.counters["consts"] =
      double(solveCP(*F, nullptr, EvalMode::DenseCFG, false).numConstantVarUses());
}
static void BM_Predicate_CFG_Refined(benchmark::State &State) {
  auto F = makePredicateChain(unsigned(State.range(0)));
  for (auto _ : State) {
    ConstPropResult R = solveCP(*F, nullptr, EvalMode::DenseCFG, true);
    benchmark::DoNotOptimize(R.size());
  }
  State.counters["consts"] =
      double(solveCP(*F, nullptr, EvalMode::DenseCFG, true).numConstantVarUses());
}
static void BM_Predicate_DFG_Refined(benchmark::State &State) {
  auto F = makePredicateChain(unsigned(State.range(0)));
  DepFlowGraph G = DepFlowGraph::build(*F);
  for (auto _ : State) {
    ConstPropResult R = solveCP(*F, &G, EvalMode::SparseDFG, true);
    benchmark::DoNotOptimize(R.size());
  }
  State.counters["consts"] =
      double(solveCP(*F, &G, EvalMode::SparseDFG, true).numConstantVarUses());
}

BENCHMARK(BM_Predicate_CFG_Plain)->Arg(16)->Arg(128)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Predicate_CFG_Refined)->Arg(16)->Arg(128)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Predicate_DFG_Refined)->Arg(16)->Arg(128)
    ->Unit(benchmark::kMicrosecond);

int main(int argc, char **argv) {
  return depflow::obs::benchMain("predicate_ext", argc, argv);
}
