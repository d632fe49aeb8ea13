//===- bench/bench_parallel.cpp - Module pipeline scaling -----------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
// Measures whole-module throughput (functions/sec) of the parallel
// pipeline driver at -j 1/2/4/8 over a generated mixed-family module, and
// checks that every parallel run prints a module byte-identical to the
// serial run — parallelism must never change what the pipeline computes.
//
// The per-function algorithms are O(E)/O(EV) and share no state across
// functions (one analysis manager per function task), so throughput
// should scale with cores until the memory bus saturates. On a single
// hardware thread all job counts collapse to the same wall time; the
// binary still verifies the equality contract there.
//
// Usage: bench_parallel [--quick] [funcs] [reps]
//   --quick     small module, one rep (CI smoke; also DEPFLOW_BENCH_QUICK=1)
//   funcs       functions per module (default 200, quick 48)
//   reps        timed repetitions per job count, best kept (default 3)
//
// Exit code: 0 on success, 1 on any serial/parallel output mismatch or
// pipeline failure.
//
//===----------------------------------------------------------------------===//

#include "ir/Printer.h"
#include "obs/Bench.h"
#include "obs/Sched.h"
#include "pass/ModulePipeline.h"
#include "workload/Generators.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace depflow;

static double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int main(int Argc, char **Argv) {
  bool Quick = std::getenv("DEPFLOW_BENCH_QUICK") != nullptr;
  unsigned Funcs = 0, Reps = 0;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--quick") == 0)
      Quick = true;
    else if (!Funcs)
      Funcs = unsigned(std::strtoul(Argv[I], nullptr, 10));
    else
      Reps = unsigned(std::strtoul(Argv[I], nullptr, 10));
  }
  if (!Funcs)
    Funcs = Quick ? 48 : 200;
  if (!Reps)
    Reps = Quick ? 1 : 3;
  const std::uint64_t Seed = 20260807;

  PassPipeline Pipe;
  if (!PassPipeline::parse("separate,constprop,pre", Pipe).ok()) {
    std::fprintf(stderr, "bench_parallel: bad pipeline\n");
    return 1;
  }

  // The generators are pure functions of the seed, so each run gets its
  // own bit-identical module (a print->parse clone would renumber
  // variables).
  {
    std::unique_ptr<Module> M = generateModule(Funcs, Seed);
    std::printf("module: %u functions, %u blocks, %u instructions\n", Funcs,
                M->numBlocks(), M->numInstructions());
  }
  std::printf("pipeline: %s, best of %u rep(s), hardware threads: %u\n",
              Pipe.str().c_str(), Reps, obs::LevelPool::resolveJobs(0));

  std::string SerialOutput;
  double SerialSec = 0;
  bool Failed = false;
  obs::BenchReport Report("parallel");

  const unsigned JobCounts[] = {1, 2, 4, 8};
  for (unsigned J : JobCounts) {
    double Best = -1;
    std::string Output;
    for (unsigned Rep = 0; Rep != Reps + 1; ++Rep) {
      // Rep 0 warms allocators and is not counted.
      std::unique_ptr<Module> M = generateModule(Funcs, Seed);
      ModulePipelineOptions Opts;
      Opts.Jobs = J;
      double T0 = nowSeconds();
      ModulePipelineResult R = runPipelineOnModule(*M, Pipe, Opts);
      double Sec = nowSeconds() - T0;
      if (!R.ok()) {
        std::fprintf(stderr, "bench_parallel: pipeline failed at -j %u:\n%s\n",
                     J, R.combinedStatus().str().c_str());
        return 1;
      }
      if (Rep == 0)
        continue;
      if (Best < 0 || Sec < Best) {
        Best = Sec;
        Output = printModule(*M);
      }
    }

    if (J == 1) {
      SerialOutput = Output;
      SerialSec = Best;
    } else if (Output != SerialOutput) {
      std::fprintf(stderr,
                   "bench_parallel: MISMATCH: -j %u output differs from -j 1 "
                   "(seed %llu, %u functions)\n",
                   J, (unsigned long long)Seed, Funcs);
      Failed = true;
    }

    double FuncsPerSec = Best > 0 ? Funcs / Best : 0;
    double Speedup = Best > 0 ? SerialSec / Best : 0;
    std::printf("  -j %u: %9.3f ms  %10.0f funcs/sec  speedup %.2fx%s\n", J,
                Best * 1e3, FuncsPerSec, Speedup,
                J > 1 && Speedup < 1.1 ? "  (no parallel hardware?)" : "");
    Report.add("jobs/" + std::to_string(J),
               {{"real_time", Best * 1e3},
                {"funcs_per_sec", FuncsPerSec},
                {"speedup", Speedup},
                {"functions", double(Funcs)}});
  }

  if (!Failed)
    std::printf("output: byte-identical across -j 1/2/4/8\n");
  Status S = Report.writeIfRequested();
  if (!S.ok()) {
    std::fprintf(stderr, "bench_parallel: %s\n", S.str().c_str());
    return 1;
  }
  return Failed ? 1 : 0;
}
