//===- bench/bench_pipeline.cpp - Managed pipeline vs per-pass rebuild ----===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
// Times the separate,constprop,pre,ssa-dfg pipeline in two configurations
// over a batch of generated structured programs:
//
//   baseline  a fresh manager per pass: nothing one pass computed is
//             served to the next, so each pass rebuilds every structure
//             it touches, as drivers without a shared analysis cache do.
//
//   managed   one caching manager for the whole pipeline: analyses are
//             computed lazily on first use, shared across passes and
//             across PRE's per-expression queries, and invalidated by
//             each pass's PreservedAnalyses.
//
// Both configurations run the same checked runPass entry over programs
// generated from the same seeds, so the pass bodies and the analysis
// implementations are identical; the only difference is whether one pass
// may reuse what an earlier one computed. Prints both times, the speedup,
// and the managed run's cache hit rate. Exits nonzero if the two configurations
// disagree on any final program — caching must never change what the
// pipeline computes.
//
//===----------------------------------------------------------------------===//

#include "ir/Printer.h"
#include "obs/Bench.h"
#include "pass/Analyses.h"
#include "pass/PassPipeline.h"
#include "workload/Generators.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>

using namespace depflow;

static double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The generator is deterministic, so calling this twice with one seed
// yields bit-identical functions — the honest way to give each
// configuration its own copy (a print->parse clone renumbers variables,
// which perturbs phi insertion order downstream).
static std::unique_ptr<Function> makeProgram(std::uint64_t Seed) {
  GenOptions Opts;
  Opts.Seed = Seed;
  Opts.TargetStmts = 300;
  Opts.NumVars = 24;
  Opts.ConstPct = 65; // Constant-rich: plenty for constprop to fold.
  Opts.ReadPct = 10;
  auto F = generateStructuredProgram(Opts);
  F->recomputePreds();
  return F;
}

static void die(Status S) {
  if (S.ok())
    return;
  std::fprintf(stderr, "bench_pipeline: pass failed: %s\n", S.str().c_str());
  std::exit(1);
}

int main(int Argc, char **Argv) {
  unsigned Programs = 12;
  if (Argc > 1)
    Programs = unsigned(std::strtoul(Argv[1], nullptr, 10));

  PassPipeline Pipe;
  die(PassPipeline::parse("separate,constprop,pre,ssa-dfg", Pipe));

  double BaselineSec = 0, ManagedSec = 0;
  std::uint64_t Hits = 0, Misses = 0;
  bool Mismatch = false;

  for (unsigned I = 0; I < Programs + 1; ++I) {
    // Iteration 0 warms caches/allocators and is not counted.
    bool Warmup = I == 0;
    auto Base = makeProgram(/*Seed=*/1000 + I);
    auto Managed = makeProgram(/*Seed=*/1000 + I);

    double T0 = nowSeconds();
    for (PassId P : Pipe.passes()) {
      FunctionAnalysisManager AM(*Base);
      die(runPass(*Base, P, AM));
    }
    double T1 = nowSeconds();

    {
      FunctionAnalysisManager AM(*Managed);
      for (PassId P : Pipe.passes())
        die(runPass(*Managed, P, AM));
      if (!Warmup) {
        Hits += AM.totalHits();
        Misses += AM.totalMisses();
      }
    }
    double T2 = nowSeconds();

    if (!Warmup) {
      BaselineSec += T1 - T0;
      ManagedSec += T2 - T1;
    }

    if (printFunction(*Base) != printFunction(*Managed)) {
      std::fprintf(stderr,
                   "bench_pipeline: MISMATCH on seed %u: cached pipeline "
                   "produced a different program than per-pass rebuild\n",
                   1000 + I);
      Mismatch = true;
    }
  }

  double Speedup = ManagedSec > 0 ? BaselineSec / ManagedSec : 0;
  double HitRate =
      Hits + Misses ? 100.0 * double(Hits) / double(Hits + Misses) : 0;
  std::printf("pipeline: separate,constprop,pre,ssa-dfg over %u programs\n",
              Programs);
  std::printf("  baseline (per-pass rebuild): %9.3f ms\n", BaselineSec * 1e3);
  std::printf("  managed  (cached analyses):  %9.3f ms\n", ManagedSec * 1e3);
  std::printf("  speedup: %.2fx\n", Speedup);
  std::printf("  analysis cache: %llu hit(s), %llu miss(es) (%.1f%% hit "
              "rate)\n",
              (unsigned long long)Hits, (unsigned long long)Misses, HitRate);

  obs::BenchReport Report("pipeline");
  Report.add("baseline_rebuild", {{"real_time", BaselineSec * 1e3},
                                  {"programs", double(Programs)}});
  Report.add("managed_cached",
             {{"real_time", ManagedSec * 1e3},
              {"speedup", Speedup},
              {"hits", double(Hits)},
              {"misses", double(Misses)},
              {"hit_rate_pct", HitRate}});
  Status S = Report.writeIfRequested();
  if (!S.ok()) {
    std::fprintf(stderr, "bench_pipeline: %s\n", S.str().c_str());
    return 1;
  }
  return Mismatch ? 1 : 0;
}
