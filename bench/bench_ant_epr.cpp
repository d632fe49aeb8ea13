//===- bench/bench_ant_epr.cpp - Experiments C6/F5 ------------------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
// C6: backward dataflow (anticipatability) on the DFG vs the CFG, per the
// Figure 5 equation schemes, and the resulting partial redundancy
// elimination decisions (insert/delete counts must agree between engines,
// since both feed the same placement rules).
//
//===----------------------------------------------------------------------===//

#include "dataflow/Anticipatability.h"
#include "dataflow/PRE.h"
#include "ir/Transforms.h"
#include "obs/Metrics.h"
#include "support/Statistic.h"
#include "workload/Generators.h"

#include "obs/BenchMain.h"

#include <benchmark/benchmark.h>

#include <bit>
#include <cstdlib>

using namespace depflow;

static std::unique_ptr<Function> makeProgram(unsigned Stmts) {
  GenOptions Opts;
  Opts.Seed = 31;
  Opts.TargetStmts = Stmts;
  Opts.NumVars = 6;
  auto F = generateStructuredProgram(Opts);
  splitCriticalEdges(*F);
  return F;
}

// Engine front doors with the bench's abort-on-failure convention: the
// generated programs are valid by construction, so a Status failure is a
// harness bug, not a measurable outcome.
static CFGAntResult solveCFGAnt(Function &F, const CFGEdges &E,
                                const Expression &Ex) {
  CFGAntResult R;
  if (!runCFGAnticipatability(F, E, Ex, R).ok())
    std::abort();
  return R;
}

static std::vector<bool> solveDFGAnt(Function &F, const CFGEdges &E,
                                     const DepFlowGraph &G,
                                     const ProgramStructureTree &PST,
                                     const Expression &Ex) {
  std::vector<bool> Ant;
  if (!runExpressionAnticipatability(F, E, &G, Ex, EvalMode::SparseDFG, Ant,
                                     /*Pan=*/nullptr, &PST)
           .ok())
    std::abort();
  return Ant;
}

/// Every expression's ANT in one batched sparse call, as rows per CFG
/// edge.
static void solveDFGAntBatched(Function &F, const CFGEdges &E,
                               const DepFlowGraph &G,
                               const ProgramStructureTree &PST,
                               const CandidateSet &Cands,
                               std::vector<std::uint64_t> &Rows) {
  Rows.assign(std::size_t(E.size()) * Cands.words(), 0);
  if (!runBatchedAnticipatability(F, E, &G, Cands, EvalMode::SparseDFG, Rows,
                                  &PST)
           .ok())
    std::abort();
}

static PREDecisions solvePRE(Function &F, const CFGEdges &E,
                             const Expression &Ex,
                             const std::vector<bool> &Ant, PREStrategy S) {
  PREDecisions D;
  if (!runPRE(F, E, Ex, Ant, S, D).ok())
    std::abort();
  return D;
}

static void BM_ANT_CFG_AllExpressions(benchmark::State &State) {
  auto F = makeProgram(unsigned(State.range(0)));
  CFGEdges E(*F);
  std::vector<Expression> Exprs = collectExpressions(*F);
  for (auto _ : State) {
    unsigned Bits = 0;
    for (const Expression &Ex : Exprs) {
      CFGAntResult R = solveCFGAnt(*F, E, Ex);
      for (unsigned C = 0; C != E.size(); ++C)
        Bits += R.ANT[C];
    }
    benchmark::DoNotOptimize(Bits);
  }
  State.counters["exprs"] = double(Exprs.size());
  State.counters["E"] = double(E.size());
}
BENCHMARK(BM_ANT_CFG_AllExpressions)
    ->Arg(100)
    ->Arg(400)
    ->Arg(1600)
    ->Unit(benchmark::kMicrosecond);

static void BM_ANT_DFG_AllExpressions(benchmark::State &State) {
  auto F = makeProgram(unsigned(State.range(0)));
  CFGEdges E(*F);
  DepFlowGraph G = DepFlowGraph::build(*F, E);
  const ProgramStructureTree PST(*F, E, cycleEquivalenceClasses(*F, E));
  std::vector<Expression> Exprs = collectExpressions(*F);
  for (auto _ : State) {
    unsigned Bits = 0;
    for (const Expression &Ex : Exprs) {
      std::vector<bool> Ant = solveDFGAnt(*F, E, G, PST, Ex);
      for (unsigned C = 0; C != E.size(); ++C)
        Bits += Ant[C];
    }
    benchmark::DoNotOptimize(Bits);
  }
  State.counters["exprs"] = double(Exprs.size());
  State.counters["E"] = double(E.size());
}
BENCHMARK(BM_ANT_DFG_AllExpressions)
    ->Arg(100)
    ->Arg(400)
    ->Arg(1600)
    ->Unit(benchmark::kMicrosecond);

/// The DFG row as the PRE pass runs it: every expression's ANT in one
/// call, one word-parallel solve per variable and one projection. The row
/// above makes one call per expression.
static void BM_ANT_DFG_AllExpressions_Batched(benchmark::State &State) {
  auto F = makeProgram(unsigned(State.range(0)));
  CFGEdges E(*F);
  DepFlowGraph G = DepFlowGraph::build(*F, E);
  const ProgramStructureTree PST(*F, E, cycleEquivalenceClasses(*F, E));
  std::vector<Expression> Exprs = collectExpressions(*F);
  const CandidateSet Cands(*F, Exprs);
  std::vector<std::uint64_t> Rows;
  for (auto _ : State) {
    solveDFGAntBatched(*F, E, G, PST, Cands, Rows);
    unsigned Bits = 0;
    for (std::uint64_t Word : Rows)
      Bits += unsigned(std::popcount(Word));
    benchmark::DoNotOptimize(Bits);
  }
  State.counters["exprs"] = double(Exprs.size());
  State.counters["E"] = double(E.size());
}
BENCHMARK(BM_ANT_DFG_AllExpressions_Batched)
    ->Arg(100)
    ->Arg(400)
    ->Arg(1600)
    ->Unit(benchmark::kMicrosecond);

/// The per-edge relative anticipatability solve alone (the sparse part the
/// DFG buys: propagation touches only the variable's dependence slice).
static void BM_ANT_DFG_RelativeSolveOnly(benchmark::State &State) {
  auto F = makeProgram(unsigned(State.range(0)));
  CFGEdges E(*F);
  DepFlowGraph G = DepFlowGraph::build(*F, E);
  std::vector<Expression> Exprs = collectExpressions(*F);
  for (auto _ : State) {
    unsigned Bits = 0;
    for (const Expression &Ex : Exprs)
      for (VarId X : Ex.variables()) {
        DFGAntResult R;
        if (!runRelativeAnticipatability(*F, G, Ex, X, R).ok())
          std::abort();
        Bits += unsigned(R.AntEdge.size());
      }
    benchmark::DoNotOptimize(Bits);
  }
  State.counters["exprs"] = double(Exprs.size());
}
BENCHMARK(BM_ANT_DFG_RelativeSolveOnly)
    ->Arg(100)
    ->Arg(400)
    ->Arg(1600)
    ->Unit(benchmark::kMicrosecond);

static void BM_EPR_MorelRenvoise(benchmark::State &State) {
  auto F = makeProgram(unsigned(State.range(0)));
  CFGEdges E(*F);
  std::vector<Expression> Exprs = collectExpressions(*F);
  double Inserts = 0, Deletes = 0;
  for (auto _ : State) {
    Inserts = Deletes = 0;
    for (const Expression &Ex : Exprs) {
      CFGAntResult R = solveCFGAnt(*F, E, Ex);
      PREDecisions D = solvePRE(*F, E, Ex, R.ANT, PREStrategy::MorelRenvoise);
      Inserts += double(D.Inserts.size());
      Deletes += double(D.Deletes.size());
    }
    benchmark::DoNotOptimize(Inserts);
  }
  State.counters["inserts"] = Inserts;
  State.counters["deletes"] = Deletes;
}
BENCHMARK(BM_EPR_MorelRenvoise)
    ->Arg(100)
    ->Arg(400)
    ->Arg(1600)
    ->Unit(benchmark::kMicrosecond);

static void BM_EPR_MorelRenvoise_DFGAnt(benchmark::State &State) {
  auto F = makeProgram(unsigned(State.range(0)));
  CFGEdges E(*F);
  DepFlowGraph G = DepFlowGraph::build(*F, E);
  const ProgramStructureTree PST(*F, E, cycleEquivalenceClasses(*F, E));
  std::vector<Expression> Exprs = collectExpressions(*F);
  double Inserts = 0, Deletes = 0;
  for (auto _ : State) {
    Inserts = Deletes = 0;
    for (const Expression &Ex : Exprs) {
      std::vector<bool> Ant = solveDFGAnt(*F, E, G, PST, Ex);
      PREDecisions D = solvePRE(*F, E, Ex, Ant, PREStrategy::MorelRenvoise);
      Inserts += double(D.Inserts.size());
      Deletes += double(D.Deletes.size());
    }
    benchmark::DoNotOptimize(Inserts);
  }
  State.counters["inserts"] = Inserts;
  State.counters["deletes"] = Deletes;
}
BENCHMARK(BM_EPR_MorelRenvoise_DFGAnt)
    ->Arg(100)
    ->Arg(400)
    ->Arg(1600)
    ->Unit(benchmark::kMicrosecond);

/// BM_EPR_MorelRenvoise with every expression placed in one word-parallel
/// solve instead of one solve per expression.
static void BM_EPR_MorelRenvoise_Batched(benchmark::State &State) {
  auto F = makeProgram(unsigned(State.range(0)));
  CFGEdges E(*F);
  std::vector<Expression> Exprs = collectExpressions(*F);
  std::vector<std::uint64_t> Ant;
  std::vector<PREDecisions> Ds;
  double Inserts = 0, Deletes = 0;
  for (auto _ : State) {
    Inserts = Deletes = 0;
    const CandidateSet Cands(*F, Exprs);
    Ant.assign(std::size_t(E.size()) * Cands.words(), 0);
    if (!runBatchedAnticipatability(*F, E, nullptr, Cands, EvalMode::DenseCFG,
                                    Ant)
             .ok() ||
        !runPRE(*F, E, Cands, Ant, PREStrategy::MorelRenvoise, Ds).ok())
      std::abort();
    for (const PREDecisions &D : Ds) {
      Inserts += double(D.Inserts.size());
      Deletes += double(D.Deletes.size());
    }
    benchmark::DoNotOptimize(Inserts);
  }
  State.counters["inserts"] = Inserts;
  State.counters["deletes"] = Deletes;
}
BENCHMARK(BM_EPR_MorelRenvoise_Batched)
    ->Arg(100)
    ->Arg(400)
    ->Arg(1600)
    ->Unit(benchmark::kMicrosecond);

static void BM_EPR_BusyCodeMotion(benchmark::State &State) {
  auto F = makeProgram(unsigned(State.range(0)));
  CFGEdges E(*F);
  std::vector<Expression> Exprs = collectExpressions(*F);
  double Inserts = 0, Deletes = 0;
  for (auto _ : State) {
    Inserts = Deletes = 0;
    for (const Expression &Ex : Exprs) {
      CFGAntResult R = solveCFGAnt(*F, E, Ex);
      PREDecisions D = solvePRE(*F, E, Ex, R.ANT, PREStrategy::Busy);
      Inserts += double(D.Inserts.size());
      Deletes += double(D.Deletes.size());
    }
    benchmark::DoNotOptimize(Inserts);
  }
  State.counters["inserts"] = Inserts;
  State.counters["deletes"] = Deletes;
}
BENCHMARK(BM_EPR_BusyCodeMotion)
    ->Arg(100)
    ->Arg(400)
    ->Arg(1600)
    ->Unit(benchmark::kMicrosecond);

//===----------------------------------------------------------------------===//
// Deterministic counter sweep + per-solve linearity claims, in
// benchMain's Extra hook. Both anticipatability engines must average
// O(E) evaluations per expression solve; the fits are on the per-solve
// mean so the (slowly growing) expression count doesn't inflate the
// exponent. The batched call solves each variable once for all of its
// expressions (per 64 of them), so its total evaluations must stay
// linear in E at a fixed variable count: a return to one solve per
// (expression, variable) pair multiplies them by the expression count.
// Its allocation traffic comes from the thread-local counters (operator
// new is hooked by dep_obs), so the gate also catches per-pair buffers.
//===----------------------------------------------------------------------===//

static void addCounterSweeps(obs::BenchReport &Report) {
  std::vector<std::pair<double, double>> CFGPoints, DFGPoints, BatchedPoints;

  auto Sweep = [&](unsigned Stmts) {
    auto F = makeProgram(Stmts);
    CFGEdges E(*F);
    DepFlowGraph G = DepFlowGraph::build(*F, E);
    const ProgramStructureTree PST(*F, E, cycleEquivalenceClasses(*F, E));
    std::vector<Expression> Exprs = collectExpressions(*F);
    if (Exprs.empty())
      return;

    resetStatistics();
    for (const Expression &Ex : Exprs)
      solveCFGAnt(*F, E, Ex);
    double CFGEvals = double(statisticValue("ant", "NumAntCFGEvals"));
    double CFGFlips = double(statisticValue("ant", "NumAntCFGBitsFlipped"));

    resetStatistics();
    for (const Expression &Ex : Exprs)
      solveDFGAnt(*F, E, G, PST, Ex);
    double DFGEvals = double(statisticValue("ant", "NumAntDFGEvals"));
    double DFGFlips = double(statisticValue("ant", "NumAntDFGBitsFlipped"));

    const CandidateSet Cands(*F, Exprs);
    std::vector<std::uint64_t> Rows(std::size_t(E.size()) * Cands.words());
    resetStatistics();
    obs::AllocDelta Alloc;
    if (!runBatchedAnticipatability(*F, E, &G, Cands, EvalMode::SparseDFG,
                                    Rows, &PST)
             .ok())
      std::abort();
    const double AllocBytes = double(Alloc.bytes());
    const double AllocCount = double(Alloc.count());
    double BatchedEvals = double(statisticValue("ant", "NumAntDFGEvals"));
    double BatchedFlips =
        double(statisticValue("ant", "NumAntDFGBitsFlipped"));

    double N = double(Exprs.size());
    CFGPoints.push_back({double(E.size()), CFGEvals / N});
    DFGPoints.push_back({double(E.size()), DFGEvals / N});
    BatchedPoints.push_back({double(E.size()), BatchedEvals});
    Report.add("Counters_Structured/" + std::to_string(Stmts),
               {{"E", double(E.size())},
                {"exprs", N},
                {"ctr_ant_cfg_evals", CFGEvals},
                {"ctr_ant_cfg_flips", CFGFlips},
                {"ctr_ant_cfg_evals_per_expr", CFGEvals / N},
                {"ctr_ant_dfg_evals", DFGEvals},
                {"ctr_ant_dfg_flips", DFGFlips},
                {"ctr_ant_dfg_evals_per_expr", DFGEvals / N},
                {"ctr_ant_dfg_evals_batched", BatchedEvals},
                {"ctr_ant_dfg_flips_batched", BatchedFlips},
                {"ctr_alloc_bytes_ant", AllocBytes},
                {"ctr_alloc_count_ant", AllocCount}},
               "count");
  };

  for (unsigned Stmts : {100u, 200u, 400u, 800u, 1600u})
    Sweep(Stmts);

  Report.addClaim(obs::fitClaim("ant-cfg-solve-linear-in-E",
                                "ctr_ant_cfg_evals_per_expr", CFGPoints, 1.0,
                                0.25, /*UpperBound=*/true));
  Report.addClaim(obs::fitClaim("ant-dfg-solve-linear-in-E",
                                "ctr_ant_dfg_evals_per_expr", DFGPoints, 1.0,
                                0.25, /*UpperBound=*/true));
  Report.addClaim(obs::fitClaim("ant-dfg-batched-linear-in-E",
                                "ctr_ant_dfg_evals_batched", BatchedPoints,
                                1.0, 0.25, /*UpperBound=*/true));
}

int main(int argc, char **argv) {
  return depflow::obs::benchMain("ant_epr", argc, argv, addCounterSweeps);
}
