//===- tools/depflow-opt.cpp - Command line optimizer driver --------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
// Usage: depflow-opt [options] [file]
//
//   --passes=P1,P2,...   run the given pass pipeline, in the given order
//                        (separate, constprop, constprop-cfg, pre,
//                        pre-busy, range, taint, nulluse, ssa, ssa-dfg).
//                        Empty pipelines and unknown pass names are usage
//                        errors (exit 2).
//   -j N | --jobs=N      process the module's functions on N worker
//                        threads (default: hardware concurrency). Output
//                        is byte-identical for every N: each function has
//                        its own analysis manager and results commit in
//                        input order.
//   --predicates         enable the x==c refinement during constprop
//   --verify-each        run the full invariant checkers after every pass
//                        (SSA form after a pass that produces SSA, DFG
//                        well-formedness, cycle-equivalence and CDG
//                        cross-checks; see verifyPassInvariants)
//   --strict             escalate def-use hygiene warnings to errors
//   --fuzz-safe          no stdout output; diagnostics and exit code only
//   --time-passes        per-pass wall time and analysis hit/miss report,
//                        aggregated over the module's functions
//   --print-stats        global statistics counters (support/Statistic.h)
//   --print-after-all    dump the IR after every pass (stderr; forces -j 1
//   --dot-after-all      so dumps stay in input order — likewise for the
//                        DFG/CFG dot dumps)
//   --dot-dfg            print the dependence flow graph in GraphViz form
//   --dot-cfg            print the CFG in GraphViz form
//   --regions            print cycle-equivalence classes and the PST
//   --slice func:line    print the executable backward slice of the module
//                        for the given criterion (interprocedural, over the
//                        system dependence graph; see docs/SDG.md)
//   --slice-forward func:line
//                        print the func:line pairs in the forward slice
//   --callgraph-dot      print the module call graph in GraphViz form
//                        (SCCs clustered, condensation levels labeled)
//   --run v1,v2,...      interpret each function with the given inputs and
//                        print its outputs
//   --trace-json FILE    write a Chrome trace-event JSON timeline (text
//                        layer, pass, analysis, and function-task spans,
//                        one track per worker thread) loadable in
//                        chrome://tracing or Perfetto
//   --log-json FILE      write the structured event journal (JSON Lines;
//                        scheduler and task lifecycle events, one object
//                        per line; tail also dumped by the crash handler)
//   --sched-report       print the scheduler report on stderr: per
//                        parallel run, the critical path through the task
//                        DAG, achievable vs measured speedup, and
//                        per-worker utilization
//   --stats-json FILE    write the machine-readable statistics report
//                        (schema "depflow-stats": pass timings and
//                        allocation, analysis hit/miss counters, global
//                        statistics, process metrics)
//   --counters-json FILE write the algorithm counter registry alone
//                        (schema "depflow-counters": every counter, max
//                        gauge, and histogram with its buckets)
//   --fault-inject=SPEC  arm one deterministic fault point
//                        (point[@nth]; also via the DEPFLOW_FAULT_INJECT
//                        environment variable — the flag wins)
//   --max-pass-millis N  cooperative per-pass deadline per function task
//   --max-task-bytes N   per-function-task allocation budget
//   --keep-going         degrade instead of abort: failed functions keep
//                        their original text in the output, exit code 4
//   --debug-crash        abort() inside the first function task (crash
//                        handler self-test)
//   --help | -h          print the full flag reference and exit 0
//
// Reads a module — one or more `func` definitions — from the file (or
// stdin), applies the requested passes to every function through the
// parallel module-pipeline driver (one analysis manager per function
// task; see src/pass/ModulePipeline.h), and prints the result in input
// order. Diagnostics are prefixed with the offending function's name.
//
// Exit codes: 0 success; 1 the input was rejected (parse error, verifier
// error, hygiene error under --strict, an unresolvable slice criterion, a
// module that cannot be sliced, or a trapping/non-halting --run);
// 2 usage error (including bad pipelines and malformed slice criterion
// syntax); 3 internal invariant violation
// (a pass broke the IR or an analysis disagreed with its reference —
// always a depflow bug); 4 degraded (--keep-going with at least one
// failed function; originals preserved in the output).
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "obs/CrashHandler.h"
#include "obs/EventLog.h"
#include "obs/Sched.h"
#include "obs/StatsJson.h"
#include "obs/Trace.h"
#include "pass/Analyses.h"
#include "pass/ModulePipeline.h"
#include "pass/PassPipeline.h"
#include "sdg/Slicer.h"
#include "structure/SESE.h"
#include "support/FaultInjection.h"
#include "support/Statistic.h"
#include "verify/PassVerifier.h"

#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

using namespace depflow;

namespace {

struct Options {
  PassPipeline Pipeline;
  unsigned Jobs = 0; // 0 = hardware concurrency.
  bool VerifyEach = false;
  bool Strict = false;
  bool FuzzSafe = false;
  bool TimePasses = false;
  bool PrintStats = false;
  bool PrintAfterAll = false;
  bool DotAfterAll = false;
  bool DotDFG = false;
  bool DotCFG = false;
  bool Regions = false;
  bool CallGraphDot = false;
  bool HasSliceBwd = false;
  bool HasSliceFwd = false;
  SliceCriterion SliceBwd;
  SliceCriterion SliceFwd;
  bool Run = false;
  bool Help = false;
  bool KeepGoing = false;
  bool DebugCrash = false;
  std::string FaultInject; // --fault-inject spec; empty = env or none.
  std::uint64_t MaxPassMillis = 0;
  std::uint64_t MaxTaskBytes = 0;
  std::vector<std::int64_t> Inputs;
  std::string TraceJson;    // --trace-json destination; empty = disabled.
  std::string StatsJson;    // --stats-json destination; empty = disabled.
  std::string CountersJson; // --counters-json destination; empty = disabled.
  std::string LogJson;      // --log-json destination; empty = disabled.
  bool SchedReport = false;
  std::string File;
};

int usage() {
  std::fprintf(stderr,
               "usage: depflow-opt [--passes=p1,p2,...] [-j N|--jobs=N] "
               "[--predicates]\n"
               "                   [--verify-each] [--strict] [--fuzz-safe] "
               "[--time-passes]\n"
               "                   [--print-stats] [--print-after-all] "
               "[--dot-after-all] [--dot-dfg]\n"
               "                   [--dot-cfg] [--regions] [--slice func:line] "
               "[--slice-forward func:line]\n"
               "                   [--callgraph-dot] [--run v1,v2,...] "
               "[--trace-json FILE]\n"
               "                   [--stats-json FILE] [--counters-json FILE] "
               "[--log-json FILE]\n"
               "                   [--sched-report] [--fault-inject=SPEC]\n"
               "                   [--max-pass-millis N] [--max-task-bytes N] "
               "[--keep-going]\n"
               "                   [--debug-crash] [--help] [file]\n");
  return 2;
}

// The authoritative flag reference; docs/TOOLS.md mirrors it and CI's docs
// job (tools/check_docs.py) fails if either side drifts. Keep every flag
// spelled out here.
void help() {
  std::printf(
      "usage: depflow-opt [options] [file]\n"
      "\n"
      "Reads a module (one or more `func` definitions) from the file or\n"
      "stdin, runs the requested pass pipeline over every function in\n"
      "parallel, and prints the result in input order. See docs/TOOLS.md\n"
      "for the full reference and docs/IR.md for the input grammar.\n"
      "\n"
      "Pipeline:\n"
      "  --passes=P1,P2,...  run the given passes in the given order\n"
      "                      (separate, constprop, constprop-cfg, pre,\n"
      "                      pre-busy, range, taint, nulluse, ssa,\n"
      "                      ssa-dfg)\n"
      "  -j N, --jobs=N      process functions on N worker threads\n"
      "                      (default: hardware concurrency); output is\n"
      "                      byte-identical for every N\n"
      "  --predicates        enable the x==c refinement during constprop\n"
      "\n"
      "Checking:\n"
      "  --verify-each       run the full invariant checkers after every\n"
      "                      pass (exit 3 on violation)\n"
      "  --strict            escalate def-use hygiene warnings to errors\n"
      "  --fuzz-safe         no stdout output; diagnostics and exit code\n"
      "                      only\n"
      "\n"
      "Observability:\n"
      "  --time-passes       per-pass wall time, analysis hit/miss, and\n"
      "                      allocation report on stderr\n"
      "  --print-stats       global statistics counters on stderr\n"
      "  --trace-json FILE   write a Chrome trace-event JSON timeline\n"
      "                      (ir/pass/analysis/task spans, one track per\n"
      "                      worker) for chrome://tracing or Perfetto\n"
      "  --stats-json FILE   write the machine-readable statistics report\n"
      "                      (versioned schema \"depflow-stats\")\n"
      "  --counters-json FILE  write only the algorithm counter registry\n"
      "                      (versioned schema \"depflow-counters\":\n"
      "                      counters, max gauges, histograms + buckets)\n"
      "  --log-json FILE     write the structured event journal (JSON\n"
      "                      Lines: one object per line, scheduler and\n"
      "                      task lifecycle events with shared-epoch\n"
      "                      timestamps; the crash handler dumps its tail\n"
      "                      to stderr on a fatal signal)\n"
      "  --sched-report      print the scheduler report on stderr: per\n"
      "                      parallel run, critical path through the task\n"
      "                      DAG, achievable vs measured speedup, and\n"
      "                      per-worker busy time / utilization\n"
      "\n"
      "Inspection:\n"
      "  --print-after-all   dump the IR after every pass (stderr;\n"
      "                      forces -j 1)\n"
      "  --dot-after-all     dump DFG/CFG GraphViz after every pass\n"
      "                      (stderr; forces -j 1)\n"
      "  --dot-dfg           print the dependence flow graph in GraphViz\n"
      "                      form instead of the module\n"
      "  --dot-cfg           print the CFG in GraphViz form instead of\n"
      "                      the module\n"
      "  --regions           print cycle-equivalence classes and the PST\n"
      "\n"
      "Slicing (interprocedural, over the system dependence graph; the\n"
      "module must be phi-free — slice before ssa or ssa-dfg; see\n"
      "docs/SDG.md):\n"
      "  --slice func:line   print the executable backward slice for the\n"
      "                      criterion: every instruction the value at\n"
      "                      func:line transitively depends on, as a\n"
      "                      runnable module reproducing that value trace\n"
      "  --slice-forward func:line\n"
      "                      print the func:line pairs that transitively\n"
      "                      depend on the criterion, one per line\n"
      "  --callgraph-dot     print the module call graph in GraphViz form\n"
      "                      (recursive SCCs clustered, condensation\n"
      "                      levels labeled)\n"
      "\n"
      "Execution:\n"
      "  --run v1,v2,...     interpret each function with the given inputs\n"
      "                      and print its outputs\n"
      "\n"
      "Robustness:\n"
      "  --fault-inject=SPEC arm one deterministic fault point, SPEC =\n"
      "                      point[@nth] (nth occurrence fires, default 1):\n"
      "                      alloc-fail, pass-fail:<name>,\n"
      "                      analysis-fail:<name>, parse-truncate,\n"
      "                      slow-pass:<ms>. Also read from the\n"
      "                      DEPFLOW_FAULT_INJECT environment variable when\n"
      "                      the flag is absent\n"
      "  --max-pass-millis N cooperative per-pass deadline per function\n"
      "                      task, checked at pass and analysis boundaries\n"
      "  --max-task-bytes N  per-function-task allocation budget, enforced\n"
      "                      exactly at the counting allocator\n"
      "  --keep-going        degrade instead of abort on per-function\n"
      "                      failure: the failed function keeps its\n"
      "                      original text in the output, a structured\n"
      "                      diagnostic goes to stderr, exit code 4\n"
      "  --debug-crash       raise a fatal signal inside the first\n"
      "                      function task (crash-handler self-test)\n"
      "\n"
      "  --help, -h          print this reference and exit 0\n"
      "\n"
      "Exit codes: 0 success; 1 input rejected (parse/verifier/strict\n"
      "hygiene error, unresolvable slice criterion, module not sliceable,\n"
      "trapping or non-halting --run); 2 usage error (including malformed\n"
      "slice criterion syntax);\n"
      "3 internal invariant violation (always a depflow bug); 4 degraded\n"
      "(--keep-going with at least one failed function).\n");
}

/// A value-taking flag is spelled `Flag VALUE` or `Flag=VALUE`. Returns
/// false if Argv[I] is neither spelling. Otherwise returns true and sets
/// \p Value, advancing \p I past a separate value; \p Value stays unset
/// when `Flag` is the last argument.
bool flagValue(int Argc, char **Argv, int &I, std::string_view Flag,
               std::optional<std::string> &Value) {
  std::string_view A = Argv[I];
  if (A == Flag) {
    if (I + 1 < Argc)
      Value = Argv[++I];
    return true;
  }
  if (A.size() > Flag.size() && A.starts_with(Flag) && A[Flag.size()] == '=') {
    Value = std::string(A.substr(Flag.size() + 1));
    return true;
  }
  return false;
}

/// Reports a value-taking flag given without its value; a usage error.
int missingValue(const char *Flag, const char *What) {
  std::fprintf(stderr, "error: %s requires %s\n", Flag, What);
  return 2;
}

/// Parses a decimal int64 that fills all of \p Text: at least one digit,
/// nothing after it, and within range.
bool parseInt64(const std::string &Text, std::int64_t &Out) {
  char *End = nullptr;
  errno = 0;
  long long N = std::strtoll(Text.c_str(), &End, 10);
  if (End == Text.c_str() || *End || errno == ERANGE)
    return false;
  Out = N;
  return true;
}

/// Returns 0 to continue, or the exit code to stop with.
int parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    std::optional<std::string> V;
    auto Value = [&](std::string_view Flag) {
      return flagValue(Argc, Argv, I, Flag, V);
    };
    if (Value("--passes")) {
      if (!V)
        return missingValue("--passes", "a pass list");
      // A repeated --passes appends to the pipeline.
      PassPipeline More;
      Status S = PassPipeline::parse(*V, More);
      if (!S.ok()) {
        std::fprintf(stderr, "error: %s\n", S.str().c_str());
        return 2;
      }
      for (PassId P : More.passes())
        O.Pipeline.append(P);
    } else if (A == "-j" || A.rfind("-j", 0) == 0 || A.rfind("--jobs=", 0) == 0) {
      std::string Num;
      if (A == "-j") {
        if (I + 1 >= Argc)
          return missingValue("-j", "a thread count");
        Num = Argv[++I];
      } else if (A.rfind("--jobs=", 0) == 0) {
        Num = A.substr(std::strlen("--jobs="));
      } else {
        Num = A.substr(2); // -jN
      }
      char *End = nullptr;
      unsigned long N = std::strtoul(Num.c_str(), &End, 10);
      if (Num.empty() || (End && *End) || N == 0) {
        std::fprintf(stderr, "error: bad thread count '%s'\n", Num.c_str());
        return 2;
      }
      O.Jobs = unsigned(N);
    } else if (A == "--predicates")
      O.Pipeline.options().Predicates = true;
    else if (A == "--verify-each")
      O.VerifyEach = true;
    else if (A == "--strict")
      O.Strict = true;
    else if (A == "--fuzz-safe")
      O.FuzzSafe = true;
    else if (A == "--time-passes")
      O.TimePasses = true;
    else if (A == "--print-stats")
      O.PrintStats = true;
    else if (A == "--print-after-all")
      O.PrintAfterAll = true;
    else if (A == "--dot-after-all")
      O.DotAfterAll = true;
    else if (A == "--dot-dfg")
      O.DotDFG = true;
    else if (A == "--dot-cfg")
      O.DotCFG = true;
    else if (A == "--regions")
      O.Regions = true;
    else if (A == "--callgraph-dot")
      O.CallGraphDot = true;
    else if (Value("--slice") || Value("--slice-forward")) {
      bool Fwd = A.rfind("--slice-forward", 0) == 0;
      const char *Flag = Fwd ? "--slice-forward" : "--slice";
      if (!V)
        return missingValue(Flag, "a func:line criterion");
      SliceCriterion &C = Fwd ? O.SliceFwd : O.SliceBwd;
      Status S = parseSliceCriterion(*V, C);
      if (!S.ok()) {
        std::fprintf(stderr, "error: %s\n", S.str().c_str());
        return 2;
      }
      (Fwd ? O.HasSliceFwd : O.HasSliceBwd) = true;
    } else if (A == "--run") {
      O.Run = true;
      // A leading '-' is a flag unless it spells a negative input value.
      if (I + 1 < Argc &&
          (Argv[I + 1][0] != '-' || std::isdigit((unsigned char)Argv[I + 1][1]))) {
        std::stringstream SS(Argv[++I]);
        std::string Tok;
        while (std::getline(SS, Tok, ',')) {
          std::int64_t N = 0;
          if (!parseInt64(Tok, N)) {
            std::fprintf(stderr, "error: bad --run value '%s'\n", Tok.c_str());
            return 2;
          }
          O.Inputs.push_back(N);
        }
      }
    } else if (Value("--trace-json")) {
      if (!V || V->empty())
        return missingValue("--trace-json", "a file");
      O.TraceJson = *V;
    } else if (Value("--stats-json")) {
      if (!V || V->empty())
        return missingValue("--stats-json", "a file");
      O.StatsJson = *V;
    } else if (Value("--counters-json")) {
      if (!V || V->empty())
        return missingValue("--counters-json", "a file");
      O.CountersJson = *V;
    } else if (Value("--log-json")) {
      if (!V || V->empty())
        return missingValue("--log-json", "a file");
      O.LogJson = *V;
    } else if (A == "--sched-report") {
      O.SchedReport = true;
    } else if (Value("--fault-inject")) {
      if (!V || V->empty())
        return missingValue("--fault-inject", "a spec");
      O.FaultInject = *V;
    } else if (Value("--max-pass-millis") || Value("--max-task-bytes")) {
      bool Millis = A.rfind("--max-pass-millis", 0) == 0;
      const char *Flag = Millis ? "--max-pass-millis" : "--max-task-bytes";
      if (!V)
        return missingValue(Flag, "a number");
      char *End = nullptr;
      unsigned long long N = std::strtoull(V->c_str(), &End, 10);
      if (V->empty() || (End && *End) || N == 0) {
        std::fprintf(stderr, "error: bad %s value '%s'\n", Flag, V->c_str());
        return 2;
      }
      (Millis ? O.MaxPassMillis : O.MaxTaskBytes) = N;
    } else if (A == "--keep-going") {
      O.KeepGoing = true;
    } else if (A == "--debug-crash") {
      O.DebugCrash = true;
    } else if (A == "--help" || A == "-h") {
      O.Help = true;
    } else if (A.rfind("--", 0) == 0) {
      return usage();
    } else {
      O.File = A;
    }
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (int Code = parseArgs(Argc, Argv, O))
    return Code;
  if (O.Help) {
    help();
    return 0;
  }

  // Last-resort fatal-signal reporting: prints the in-flight function and
  // best-effort flushes any requested trace/stats JSON before dying.
  obs::installCrashHandler();
  obs::setCrashFlushHook([&O]() {
    if (!O.TraceJson.empty())
      obs::TraceRecorder::global().writeChromeJson(O.TraceJson);
    if (!O.LogJson.empty())
      obs::EventLogger::global().writeJsonLines(O.LogJson);
    if (!O.StatsJson.empty()) {
      obs::StatsReport SR;
      SR.Tool = "depflow-opt";
      SR.Pipeline = O.Pipeline.str();
      obs::writeStatsJson(O.StatsJson, SR);
    }
  });

  // The flag wins over the environment so a wrapper-exported spec can be
  // overridden per invocation.
  std::string FaultSpecText = O.FaultInject;
  if (FaultSpecText.empty())
    if (const char *Env = std::getenv("DEPFLOW_FAULT_INJECT"))
      FaultSpecText = Env;
  if (!FaultSpecText.empty()) {
    Status S = configureFaultInjection(FaultSpecText);
    if (!S.ok()) {
      std::fprintf(stderr, "error: %s\n", S.str().c_str());
      return 2;
    }
  }

  if (!O.TraceJson.empty()) {
    obs::TraceRecorder::global().setEnabled(true);
    obs::TraceRecorder::global().setCurrentThreadName("main");
  }
  if (!O.LogJson.empty())
    obs::EventLogger::global().setEnabled(true);
  // The scheduler recorder feeds both the stderr report and the stats
  // document's `sched` section; the deterministic sched *counters* bump
  // unconditionally (they are structure-only and cost nothing).
  if (O.SchedReport || !O.StatsJson.empty())
    obs::SchedRecorder::global().setEnabled(true);
  // Written wherever the run ends (including the internal-error exits): a
  // truncated run's timeline is exactly when the trace is wanted.
  auto WriteTrace = [&]() -> int {
    if (O.TraceJson.empty())
      return 0;
    Status S = obs::TraceRecorder::global().writeChromeJson(O.TraceJson);
    if (!S.ok()) {
      std::fprintf(stderr, "error: %s\n", S.str().c_str());
      return 1;
    }
    return 0;
  };
  // Same contract for the event journal: every exit path that writes the
  // trace writes the journal, so a failed run's events still land.
  auto WriteLog = [&]() -> int {
    if (O.LogJson.empty())
      return 0;
    Status S = obs::EventLogger::global().writeJsonLines(O.LogJson);
    if (!S.ok()) {
      std::fprintf(stderr, "error: %s\n", S.str().c_str());
      return 1;
    }
    return 0;
  };

  std::string Src;
  if (O.File.empty()) {
    std::stringstream SS;
    SS << std::cin.rdbuf();
    Src = SS.str();
  } else {
    std::ifstream In(O.File);
    if (!In) {
      std::fprintf(stderr, "error: cannot open %s\n", O.File.c_str());
      return 1;
    }
    std::stringstream SS;
    SS << In.rdbuf();
    Src = SS.str();
  }
  // `parse-truncate` check site: an armed truncation cuts the source in
  // half here, before parsing, to prove the parser degrades gracefully.
  Src = faultTruncateSource(Src);

  // The text layers (parse, verify, hygiene, print) each get one `ir`
  // span, so a trace covers the serial part of the run as well.
  ParseModuleResult R;
  {
    obs::TraceSpan Span("ir", "parse");
    R = parseModule(Src);
  }
  if (!R.ok()) {
    std::fprintf(stderr, "parse error: %s\n%s", R.Error.c_str(),
                 sourceExcerpt(Src, R.ErrorLine).c_str());
    return 1;
  }
  Module &M = *R.M;

  // Report *every* verifier error for *every* function, then every hygiene
  // warning (errors under --strict; the base IR gives unassigned variables
  // the value 0, so these are suspicious rather than ill-formed).
  bool AnyError = false, AnyWarning = false;
  {
    obs::TraceSpan Span("ir", "verify");
    for (const auto &F : M.functions()) {
      for (const std::string &Err : verifyFunction(*F)) {
        std::fprintf(stderr, "verifier: %s: %s\n", F->name().c_str(),
                     Err.c_str());
        AnyError = true;
      }
    }
  }
  if (AnyError)
    return 1;
  {
    obs::TraceSpan Span("ir", "hygiene");
    for (const auto &F : M.functions()) {
      for (const std::string &W : verifyDefUseHygiene(*F)) {
        std::fprintf(stderr, "%s: %s: %s\n", O.Strict ? "error" : "warning",
                     F->name().c_str(), W.c_str());
        AnyWarning = true;
      }
    }
  }
  if (O.Strict && AnyWarning)
    return 1;

  ModulePipelineOptions MPO;
  MPO.Jobs = O.Jobs;
  MPO.PrintAfterAll = O.PrintAfterAll;
  MPO.DotAfterAll = O.DotAfterAll;
  MPO.KeepGoing = O.KeepGoing;
  MPO.MaxPassMillis = O.MaxPassMillis;
  MPO.MaxTaskBytes = O.MaxTaskBytes;
  // --verify-each: the hook runs on worker threads, so the report takes a
  // lock and the exit code is atomic. The first violation wins; later
  // (expensive) checks are skipped.
  std::mutex VerifyLock;
  std::atomic<int> VerifyExit{0};
  if (O.VerifyEach)
    MPO.AfterPass = [&](unsigned, PassId P, Function &F,
                        FunctionAnalysisManager &) {
      if (VerifyExit.load())
        return;
      Status V = verifyPassInvariants(F, P);
      if (V.ok())
        return;
      std::lock_guard<std::mutex> G(VerifyLock);
      std::fprintf(stderr,
                   "internal error: function '%s': invariants violated "
                   "after --%s:\n%s\n",
                   F.name().c_str(), passName(P), V.str().c_str());
      VerifyExit.store(3);
    };
  if (O.DebugCrash) {
    // Crash-handler self-test: die inside a function task so the handler
    // has an in-flight function name to report. Chains any existing hook.
    auto Prev = MPO.AfterPass;
    MPO.AfterPass = [Prev](unsigned I, PassId P, Function &F,
                           FunctionAnalysisManager &AM) {
      if (Prev)
        Prev(I, P, F, AM);
      std::abort();
    };
  }

  ModulePipelineResult PR = runPipelineOnModule(M, O.Pipeline, MPO);
  bool Degraded = false;
  if (!PR.ok()) {
    if (O.KeepGoing) {
      // Degraded completion: failed functions were restored to their
      // original text; report the structured diagnostics and keep printing
      // the module so successful functions reach the output unchanged.
      PR.printFailureReport(stderr);
      Degraded = true;
    } else {
      // Every function verified above, so without fault injection or
      // budgets a failure here is depflow's fault.
      std::fprintf(stderr, "internal error: %s\n",
                   PR.combinedStatus().str().c_str());
      WriteTrace();
      WriteLog();
      return 3;
    }
  }
  if (VerifyExit.load()) {
    WriteTrace();
    WriteLog();
    return VerifyExit.load();
  }

  // Post-pipeline inspection output, in input order. These run serially
  // with a fresh per-function manager (the pipeline's managers died with
  // their tasks).
  if (O.Regions && !O.FuzzSafe)
    for (const auto &F : M.functions()) {
      FunctionAnalysisManager AM(*F);
      const CFGEdges &E = AM.getResult<CFGEdgesAnalysis>();
      const ProgramStructureTree &PST = AM.getResult<PSTAnalysis>();
      std::printf("%s", PST.dump(*F, E).c_str());
    }

  if (O.DotCFG && !O.FuzzSafe)
    for (const auto &F : M.functions())
      std::printf("%s", printCFGDot(*F).c_str());

  if (O.DotDFG && !O.FuzzSafe)
    for (const auto &F : M.functions()) {
      FunctionAnalysisManager AM(*F);
      const DepFlowGraph &G = AM.getResult<DFGAnalysis>();
      std::printf("%s", G.toDot(*F).c_str());
    }

  // Interprocedural inspection: the call graph and SDG-based slicing.
  // These consume the post-pipeline module; the SDG needs resolved calls
  // (guaranteed by the module parser) and phi-free functions.
  const bool SDGMode = O.HasSliceBwd || O.HasSliceFwd || O.CallGraphDot;
  if (SDGMode) {
    std::vector<std::string> CallErrs = verifyModuleCalls(M);
    for (const std::string &Err : CallErrs)
      std::fprintf(stderr, "slice error: %s\n", Err.c_str());
    if (!CallErrs.empty())
      return 1;
    if (O.CallGraphDot) {
      CallGraph CG = CallGraph::build(M);
      if (!O.FuzzSafe)
        std::printf("%s", CG.toDot().c_str());
    }
    if (O.HasSliceBwd || O.HasSliceFwd) {
      for (const auto &F : M.functions())
        if (F->hasPhis()) {
          std::fprintf(stderr,
                       "slice error: function '%s' contains phi "
                       "instructions; slice before ssa or ssa-dfg\n",
                       F->name().c_str());
          return 1;
        }
      SDGBuildOptions SO;
      SO.Jobs = O.Jobs;
      std::optional<SystemDependenceGraph> GOpt;
      try {
        GOpt.emplace(SystemDependenceGraph::build(M, SO));
      } catch (const FaultInjectedError &E) {
        std::fprintf(stderr, "slice error: SDG construction failed: %s\n",
                     E.what());
        return 3;
      }
      SystemDependenceGraph &G = *GOpt;
      if (O.HasSliceFwd) {
        std::vector<unsigned> Crit;
        Status S = resolveCriterion(G, O.SliceFwd, Crit);
        if (!S.ok()) {
          std::fprintf(stderr, "slice error: %s\n", S.str().c_str());
          return 1;
        }
        std::vector<char> Marks = sliceSDG(G, Crit, SliceDirection::Forward);
        if (!O.FuzzSafe)
          for (auto [FI, Line] : sliceLines(G, Marks))
            std::printf("%s:%u\n", M.function(FI)->name().c_str(), Line);
      }
      if (O.HasSliceBwd) {
        std::vector<unsigned> Crit;
        Status S = resolveCriterion(G, O.SliceBwd, Crit);
        if (!S.ok()) {
          std::fprintf(stderr, "slice error: %s\n", S.str().c_str());
          return 1;
        }
        std::vector<char> Marks = sliceSDG(G, Crit, SliceDirection::Backward);
        std::unique_ptr<Module> Sliced = extractBackwardSlice(M, G, Marks);
        if (!O.FuzzSafe)
          std::printf("%s", printModule(*Sliced).c_str());
      }
    }
  }

  if (!O.Regions && !O.DotCFG && !O.DotDFG && !SDGMode && !O.FuzzSafe) {
    obs::TraceSpan Span("ir", "print");
    std::printf("%s", printModule(M).c_str());
  }

  if (O.TimePasses)
    PR.printReport(stderr);
  if (O.PrintStats)
    printStatistics(stderr);
  if (O.SchedReport)
    std::fprintf(
        stderr, "%s",
        obs::renderSchedReport(obs::SchedRecorder::global().snapshot())
            .c_str());

  if (int Code = WriteTrace())
    return Code;
  if (int Code = WriteLog())
    return Code;
  if (!O.StatsJson.empty()) {
    obs::StatsReport SR;
    SR.Tool = "depflow-opt";
    SR.Pipeline = O.Pipeline.str();
    SR.Functions = M.numFunctions();
    SR.Jobs = obs::LevelPool::resolveJobs(O.Jobs);
    SR.IncludeSched = true;
    for (const PassInstrumentation::Record &Rec : PR.aggregatePassRecords())
      SR.Passes.push_back({Rec.Pass, Rec.Seconds, Rec.AnalysisHits,
                           Rec.AnalysisMisses, Rec.AllocBytes});
    for (const FunctionAnalysisManager::Counter &C : PR.aggregateCounters())
      SR.Analyses.push_back({C.Name, C.Hits, C.Misses});
    for (const FunctionPipelineResult &FR : PR.Functions) {
      obs::StatsFunctionRecord T;
      T.Function = FR.Name;
      T.Ok = FR.S.ok();
      if (!T.Ok) {
        T.Cause = taskFailureKindName(FR.FailKind);
        T.FailPass = FR.FailPass;
      }
      T.Restored = FR.Restored;
      T.Seconds = FR.TaskSeconds;
      T.AllocBytes = FR.TaskAllocBytes;
      SR.FunctionTasks.push_back(std::move(T));
    }
    Status S = obs::writeStatsJson(O.StatsJson, SR);
    if (!S.ok()) {
      std::fprintf(stderr, "error: %s\n", S.str().c_str());
      return 1;
    }
  }
  if (!O.CountersJson.empty()) {
    Status S = obs::writeCountersJson(O.CountersJson, "depflow-opt",
                                      O.Pipeline.str());
    if (!S.ok()) {
      std::fprintf(stderr, "error: %s\n", S.str().c_str());
      return 1;
    }
  }

  if (O.Run) {
    const bool Prefix = M.numFunctions() > 1;
    for (const auto &F : M.functions()) {
      // Resolve calls against the whole module: each function is an
      // entry point, sharing the input stream with its callees.
      ExecResult Res = runModule(M, *F, O.Inputs);
      if (Res.Trapped) {
        std::fprintf(stderr, "run: %s: trapped: %s\n", F->name().c_str(),
                     Res.TrapReason.c_str());
        return 1;
      }
      if (!Res.Halted) {
        std::fprintf(stderr, "run: %s: step budget exhausted\n",
                     F->name().c_str());
        return 1;
      }
      if (!O.FuzzSafe) {
        if (Prefix)
          std::printf("; outputs(%s):", F->name().c_str());
        else
          std::printf("; outputs:");
        for (std::int64_t V : Res.Outputs)
          std::printf(" %lld", (long long)V);
        std::printf("\n");
      }
    }
  }
  return Degraded ? 4 : 0;
}
