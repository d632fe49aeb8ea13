//===- bench/bench_dfg_construction.cpp - Experiment C4 -------------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
// C4: DFG construction is O(EV) (Section 3.2); sweeping E at fixed V and
// V at fixed E shows the product scaling. Counters record how much region
// bypassing plus dead-edge removal shrink the base-level graph (Figure 2's
// point). The builder creates only the live graph; the base-level figures
// are the paper's graph, counted exactly without being built.
//
//===----------------------------------------------------------------------===//

#include "core/DepFlowGraph.h"
#include "support/Statistic.h"
#include "workload/Generators.h"

#include "obs/BenchMain.h"
#include "obs/Metrics.h"

#include <benchmark/benchmark.h>

#include <string>
#include <utility>
#include <vector>

using namespace depflow;

static std::unique_ptr<Function> makeProgram(unsigned Stmts, unsigned Vars) {
  GenOptions Opts;
  Opts.Seed = 99;
  Opts.TargetStmts = Stmts;
  Opts.NumVars = Vars;
  auto F = generateStructuredProgram(Opts);
  F->recomputePreds();
  return F;
}

static void BM_DFG_Build_SweepE(benchmark::State &State) {
  auto F = makeProgram(unsigned(State.range(0)), 8);
  CFGEdges E(*F);
  for (auto _ : State) {
    DepFlowGraph G = DepFlowGraph::build(*F, E);
    benchmark::DoNotOptimize(G.numEdges());
  }
  DepFlowGraph G = DepFlowGraph::build(*F, E);
  State.counters["E"] = double(E.size());
  State.counters["edges_base"] = double(G.stats().EdgesBeforePrune);
  State.counters["edges_final"] = double(G.numEdges());
  State.SetComplexityN(E.size());
}
BENCHMARK(BM_DFG_Build_SweepE)
    ->RangeMultiplier(4)
    ->Range(64, 4096)
    ->Complexity(benchmark::oN)
    ->Unit(benchmark::kMicrosecond);

static void BM_DFG_Build_SweepV(benchmark::State &State) {
  auto F = makeProgram(400, unsigned(State.range(0)));
  CFGEdges E(*F);
  for (auto _ : State) {
    DepFlowGraph G = DepFlowGraph::build(*F, E);
    benchmark::DoNotOptimize(G.numEdges());
  }
  State.counters["V"] = double(State.range(0));
  State.counters["E"] = double(E.size());
  State.SetComplexityN(unsigned(State.range(0)));
}
BENCHMARK(BM_DFG_Build_SweepV)
    ->RangeMultiplier(2)
    ->Range(2, 64)
    ->Complexity(benchmark::oN)
    ->Unit(benchmark::kMicrosecond);

static void BM_DFG_Build_NoBypass(benchmark::State &State) {
  auto F = makeProgram(unsigned(State.range(0)), 8);
  CFGEdges E(*F);
  for (auto _ : State) {
    DepFlowGraph G =
        DepFlowGraph::build(*F, E, DepFlowGraph::BypassMode::None);
    benchmark::DoNotOptimize(G.numEdges());
  }
  DepFlowGraph G = DepFlowGraph::build(*F, E, DepFlowGraph::BypassMode::None);
  State.counters["edges_final"] = double(G.numEdges());
}
BENCHMARK(BM_DFG_Build_NoBypass)
    ->RangeMultiplier(4)
    ->Range(64, 4096)
    ->Unit(benchmark::kMicrosecond);

//===----------------------------------------------------------------------===//
// Deterministic counter sweep + the O(EV) claim fit, in benchMain's Extra
// hook (outside the machine-dependent timing loops). The fitted work is
// the number of edges in the paper's base-level DFG (counted in closed
// form; the builder routes only the live subset, so this is an upper
// bound on its routing work), against the paper's E·(V+1) budget (V
// variables plus the control token), combining the E sweep at fixed V
// with the V sweep at fixed E.
//===----------------------------------------------------------------------===//

static void addCounterSweeps(obs::BenchReport &Report) {
  std::vector<std::pair<double, double>> Points;

  auto Sweep = [&](unsigned Stmts, unsigned Vars) {
    auto F = makeProgram(Stmts, Vars);
    CFGEdges E(*F);
    resetStatistics();
    // Allocation footprint of one build, measured on the deterministic
    // thread-local counters (operator new is hooked by dep_obs): exact
    // and machine-independent, so the perf gate diffs it like any other
    // ctr_* metric. The graph's storage is one exactly sized block, so
    // the arena high-water gauge follows the build's cycle-equivalence
    // solve.
    obs::AllocDelta Alloc;
    DepFlowGraph G = DepFlowGraph::build(*F, E);
    double AllocBytes = double(Alloc.bytes());
    double AllocCount = double(Alloc.count());
    double Base = double(statisticValue("dfg-build", "NumDFGBaseEdges"));
    double Budget = double(E.size()) * double(Vars + 1);
    Points.push_back({Budget, Base});
    Report.add("Counters_Structured/" + std::to_string(Stmts) + "x" +
                   std::to_string(Vars),
               {{"E", double(E.size())},
                {"V", double(Vars)},
                {"EV_budget", Budget},
                {"ctr_dfg_base_edges", Base},
                {"ctr_dfg_bypass_redirects",
                 double(statisticValue("dfg-build", "NumDFGBypassRedirects"))},
                {"ctr_dfg_dead_edges_removed",
                 double(statisticValue("dfg-build", "NumDFGDeadEdgesRemoved"))},
                {"ctr_dfg_dead_nodes_removed",
                 double(statisticValue("dfg-build", "NumDFGDeadNodesRemoved"))},
                {"ctr_alloc_bytes", AllocBytes},
                {"ctr_alloc_count", AllocCount},
                {"ctr_arena_highwater",
                 double(statisticValue("arena", "MaxArenaFootprint"))},
                {"edges_final", double(G.numEdges())}},
               "count");
  };

  for (unsigned Stmts : {64u, 256u, 1024u, 4096u})
    Sweep(Stmts, 8);
  for (unsigned Vars : {2u, 4u, 16u, 64u})
    Sweep(400, Vars);

  Report.addClaim(obs::fitClaim("dfg-construction-edges-linear-in-EV",
                                "ctr_dfg_base_edges", Points, 1.0, 0.25,
                                /*UpperBound=*/true));
}

int main(int argc, char **argv) {
  return depflow::obs::benchMain("dfg_construction", argc, argv,
                                 addCounterSweeps);
}
