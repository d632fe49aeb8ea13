//===- bench/bench_ssa.cpp - Experiment C3 --------------------------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
// C3: SSA construction through the DFG (no dominators, no dominance
// frontiers — Section 3.3) vs the Cytron et al. baseline. Both sides
// measure φ-placement from the bare function: Cytron builds its dominator
// tree, frontiers and liveness; the DFG route numbers the CFG edges,
// solves cycle equivalence, builds the PST and plans the routing, and
// materializes no graph. Renaming is shared. The counter checks both
// place the same number of φs.
//
//===----------------------------------------------------------------------===//

#include "ssa/SSA.h"
#include "workload/Generators.h"

#include "obs/BenchMain.h"
#include "obs/Metrics.h"

#include <benchmark/benchmark.h>

#include <string>

using namespace depflow;

static std::unique_ptr<Function> makeProgram(unsigned Stmts, unsigned Vars) {
  GenOptions Opts;
  Opts.Seed = 1234;
  Opts.TargetStmts = Stmts;
  Opts.NumVars = Vars;
  auto F = generateStructuredProgram(Opts);
  F->recomputePreds();
  return F;
}

static void BM_SSA_CytronPruned(benchmark::State &State) {
  auto F = makeProgram(unsigned(State.range(0)), unsigned(State.range(1)));
  for (auto _ : State) {
    PhiPlacement P = cytronPhiPlacement(*F, /*Pruned=*/true);
    benchmark::DoNotOptimize(P.numPhis());
  }
  State.counters["E"] = double(F->numEdges());
  State.counters["V"] = double(State.range(1));
  State.counters["phis"] = double(cytronPhiPlacement(*F, true).numPhis());
}
BENCHMARK(BM_SSA_CytronPruned)
    ->Args({100, 8})
    ->Args({400, 8})
    ->Args({1600, 8})
    ->Args({400, 2})
    ->Args({400, 32})
    ->Unit(benchmark::kMicrosecond);

static void BM_SSA_ViaDFG(benchmark::State &State) {
  auto F = makeProgram(unsigned(State.range(0)), unsigned(State.range(1)));
  for (auto _ : State) {
    PhiPlacement P = dfgPhiPlacement(*F);
    benchmark::DoNotOptimize(P.numPhis());
  }
  State.counters["E"] = double(F->numEdges());
  State.counters["V"] = double(State.range(1));
  State.counters["phis"] = double(dfgPhiPlacement(*F).numPhis());
}
BENCHMARK(BM_SSA_ViaDFG)
    ->Args({100, 8})
    ->Args({400, 8})
    ->Args({1600, 8})
    ->Args({400, 2})
    ->Args({400, 32})
    ->Unit(benchmark::kMicrosecond);

static void BM_SSA_FullRename(benchmark::State &State) {
  for (auto _ : State) {
    State.PauseTiming();
    auto F = makeProgram(unsigned(State.range(0)), 8);
    State.ResumeTiming();
    PhiPlacement P = cytronPhiPlacement(*F, /*Pruned=*/true);
    applySSA(*F, P);
    benchmark::DoNotOptimize(F->numVars());
  }
}
BENCHMARK(BM_SSA_FullRename)
    ->Arg(100)
    ->Arg(400)
    ->Arg(1600)
    ->Unit(benchmark::kMicrosecond);

//===----------------------------------------------------------------------===//
// Deterministic counter sweep, in benchMain's Extra hook (outside the
// machine-dependent timing loops): on the timed size ladder, the φs each
// route places and the allocation traffic of one placement per route,
// from the thread-local counters (operator new is hooked by dep_obs). The
// perf gate diffs them exactly, so a DFG route that went back to
// materializing the graph shows up as an allocation regression.
//===----------------------------------------------------------------------===//

static void addCounterSweeps(obs::BenchReport &Report) {
  for (auto [Stmts, Vars] : {std::pair{100u, 8u}, std::pair{400u, 8u},
                             std::pair{1600u, 8u}, std::pair{400u, 2u},
                             std::pair{400u, 32u}}) {
    auto F = makeProgram(Stmts, Vars);
    obs::AllocDelta CytronAlloc;
    const PhiPlacement Cytron = cytronPhiPlacement(*F, /*Pruned=*/true);
    const double CytronBytes = double(CytronAlloc.bytes());
    const double CytronCount = double(CytronAlloc.count());
    obs::AllocDelta DFGAlloc;
    const PhiPlacement FromDFG = dfgPhiPlacement(*F);
    const double DFGBytes = double(DFGAlloc.bytes());
    const double DFGCount = double(DFGAlloc.count());
    Report.add("Counters_Structured/" + std::to_string(Stmts) + "x" +
                   std::to_string(Vars),
               {{"E", double(F->numEdges())},
                {"V", double(Vars)},
                {"ctr_phis_cytron", double(Cytron.numPhis())},
                {"ctr_phis_dfg", double(FromDFG.numPhis())},
                {"ctr_placements_equal", Cytron == FromDFG ? 1.0 : 0.0},
                {"ctr_alloc_bytes_cytron", CytronBytes},
                {"ctr_alloc_count_cytron", CytronCount},
                {"ctr_alloc_bytes_dfg", DFGBytes},
                {"ctr_alloc_count_dfg", DFGCount}},
               "count");
  }
}

int main(int argc, char **argv) {
  return depflow::obs::benchMain("ssa", argc, argv, addCounterSweeps);
}
