//===- bench/bench_cdg.cpp - Experiment C2 --------------------------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
// C2: control-dependence equivalence via cycle equivalence (O(E)) vs the
// FOW baseline that materializes per-edge CD sets and partitions them —
// the improvement the paper claims for factored CDG construction.
//
//===----------------------------------------------------------------------===//

#include "cdg/ControlDependence.h"
#include "graph/Dominators.h"
#include "workload/Generators.h"

#include "obs/BenchMain.h"

#include <benchmark/benchmark.h>

using namespace depflow;

static std::unique_ptr<Function> makeCFG(unsigned Blocks) {
  auto F = generateRandomCFGProgram(5, Blocks, 55, 4, 1);
  F->recomputePreds();
  return F;
}

static void BM_CDEquivalence_FOWBaseline(benchmark::State &State) {
  auto F = makeCFG(unsigned(State.range(0)));
  CFGEdges E(*F);
  for (auto _ : State) {
    unsigned NumClasses = 0;
    auto P = edgeCDPartitionBaseline(*F, E, NumClasses);
    benchmark::DoNotOptimize(P.data());
  }
  State.counters["E"] = double(E.size());
  State.SetComplexityN(E.size());
}
BENCHMARK(BM_CDEquivalence_FOWBaseline)
    ->RangeMultiplier(4)
    ->Range(32, 8192)
    ->Complexity()
    ->Unit(benchmark::kMicrosecond);

static void BM_CDEquivalence_CycleEquiv(benchmark::State &State) {
  auto F = makeCFG(unsigned(State.range(0)));
  CFGEdges E(*F);
  for (auto _ : State) {
    CycleEquivalence CE = cycleEquivalenceClasses(*F, E);
    benchmark::DoNotOptimize(CE.ClassOf.data());
  }
  State.counters["E"] = double(E.size());
  State.SetComplexityN(E.size());
}
BENCHMARK(BM_CDEquivalence_CycleEquiv)
    ->RangeMultiplier(4)
    ->Range(32, 8192)
    ->Complexity(benchmark::oN)
    ->Unit(benchmark::kMicrosecond);

static void BM_FactoredCDG_Build(benchmark::State &State) {
  auto F = makeCFG(unsigned(State.range(0)));
  CFGEdges E(*F);
  for (auto _ : State) {
    FactoredCDG CDG = buildFactoredCDG(*F, E);
    benchmark::DoNotOptimize(CDG.ClassCD.data());
  }
  State.counters["E"] = double(E.size());
  State.counters["classes"] = double(buildFactoredCDG(*F, E).Classes.NumClasses);
}
BENCHMARK(BM_FactoredCDG_Build)
    ->RangeMultiplier(4)
    ->Range(32, 8192)
    ->Unit(benchmark::kMicrosecond);

static void BM_NodeCDG_FOW(benchmark::State &State) {
  auto F = makeCFG(unsigned(State.range(0)));
  CFGEdges E(*F);
  for (auto _ : State) {
    auto CD = nodeControlDependence(*F, E, DomTree(*F, DomTree::Post));
    benchmark::DoNotOptimize(CD.data());
  }
  State.counters["E"] = double(E.size());
}
BENCHMARK(BM_NodeCDG_FOW)
    ->RangeMultiplier(4)
    ->Range(32, 8192)
    ->Unit(benchmark::kMicrosecond);

int main(int argc, char **argv) {
  return depflow::obs::benchMain("cdg", argc, argv);
}
