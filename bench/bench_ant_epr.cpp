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
#include "support/Statistic.h"
#include "workload/Generators.h"

#include "obs/BenchMain.h"

#include <benchmark/benchmark.h>

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
                                     const Expression &Ex,
                                     const ProjectionContext *Ctx = nullptr) {
  std::vector<bool> Ant;
  if (!runExpressionAnticipatability(F, E, &G, Ex, EvalMode::SparseDFG, Ant,
                                     /*Pan=*/nullptr, Ctx)
           .ok())
    std::abort();
  return Ant;
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
  std::vector<Expression> Exprs = collectExpressions(*F);
  for (auto _ : State) {
    unsigned Bits = 0;
    for (const Expression &Ex : Exprs) {
      std::vector<bool> Ant = solveDFGAnt(*F, E, G, Ex);
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

/// The DFG row as the PRE pass runs it: one projection context (the
/// edge-split dominator and postdominator trees) per function, shared by
/// every expression. The row above builds one per expression.
static void BM_ANT_DFG_AllExpressions_SharedContext(benchmark::State &State) {
  auto F = makeProgram(unsigned(State.range(0)));
  CFGEdges E(*F);
  DepFlowGraph G = DepFlowGraph::build(*F, E);
  std::vector<Expression> Exprs = collectExpressions(*F);
  for (auto _ : State) {
    ProjectionContext Ctx(*F, E);
    unsigned Bits = 0;
    for (const Expression &Ex : Exprs) {
      std::vector<bool> Ant = solveDFGAnt(*F, E, G, Ex, &Ctx);
      for (unsigned C = 0; C != E.size(); ++C)
        Bits += Ant[C];
    }
    benchmark::DoNotOptimize(Bits);
  }
  State.counters["exprs"] = double(Exprs.size());
  State.counters["E"] = double(E.size());
}
BENCHMARK(BM_ANT_DFG_AllExpressions_SharedContext)
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
  std::vector<Expression> Exprs = collectExpressions(*F);
  double Inserts = 0, Deletes = 0;
  for (auto _ : State) {
    Inserts = Deletes = 0;
    for (const Expression &Ex : Exprs) {
      std::vector<bool> Ant = solveDFGAnt(*F, E, G, Ex);
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
  std::vector<std::vector<bool>> Ants(Exprs.size());
  std::vector<PREDecisions> Ds;
  double Inserts = 0, Deletes = 0;
  for (auto _ : State) {
    Inserts = Deletes = 0;
    for (std::size_t K = 0; K != Exprs.size(); ++K)
      Ants[K] = solveCFGAnt(*F, E, Exprs[K]).ANT;
    if (!runPRE(*F, E, Exprs, Ants, PREStrategy::MorelRenvoise, Ds).ok())
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
// exponent.
//===----------------------------------------------------------------------===//

static void addCounterSweeps(obs::BenchReport &Report) {
  std::vector<std::pair<double, double>> CFGPoints, DFGPoints;

  auto Sweep = [&](unsigned Stmts) {
    auto F = makeProgram(Stmts);
    CFGEdges E(*F);
    DepFlowGraph G = DepFlowGraph::build(*F, E);
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
      solveDFGAnt(*F, E, G, Ex);
    double DFGEvals = double(statisticValue("ant", "NumAntDFGEvals"));
    double DFGFlips = double(statisticValue("ant", "NumAntDFGBitsFlipped"));

    double N = double(Exprs.size());
    CFGPoints.push_back({double(E.size()), CFGEvals / N});
    DFGPoints.push_back({double(E.size()), DFGEvals / N});
    Report.add("Counters_Structured/" + std::to_string(Stmts),
               {{"E", double(E.size())},
                {"exprs", N},
                {"ctr_ant_cfg_evals", CFGEvals},
                {"ctr_ant_cfg_flips", CFGFlips},
                {"ctr_ant_cfg_evals_per_expr", CFGEvals / N},
                {"ctr_ant_dfg_evals", DFGEvals},
                {"ctr_ant_dfg_flips", DFGFlips},
                {"ctr_ant_dfg_evals_per_expr", DFGEvals / N}},
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
}

int main(int argc, char **argv) {
  return depflow::obs::benchMain("ant_epr", argc, argv, addCounterSweeps);
}
