//===- pass/ModulePipeline.cpp - Parallel module pipeline driver ----------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "pass/ModulePipeline.h"

#include "ir/Parser.h"
#include "ir/Printer.h"
#include "obs/Metrics.h"
#include "obs/Sched.h"
#include "support/FaultInjection.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <new>

using namespace depflow;

const char *depflow::taskFailureKindName(TaskFailureKind K) {
  switch (K) {
  case TaskFailureKind::None:
    return "none";
  case TaskFailureKind::PassError:
    return "pass-error";
  case TaskFailureKind::FaultInjected:
    return "fault-injected";
  case TaskFailureKind::DeadlineExceeded:
    return "deadline-exceeded";
  case TaskFailureKind::MemoryBudget:
    return "memory-budget";
  case TaskFailureKind::OutOfMemory:
    return "out-of-memory";
  case TaskFailureKind::Exception:
    return "exception";
  }
  return "unknown";
}

//===----------------------------------------------------------------------===//
// Result aggregation (always in input order — scheduling-independent)
//===----------------------------------------------------------------------===//

bool ModulePipelineResult::ok() const {
  for (const FunctionPipelineResult &FR : Functions)
    if (!FR.S.ok())
      return false;
  return true;
}

unsigned ModulePipelineResult::numFailed() const {
  unsigned N = 0;
  for (const FunctionPipelineResult &FR : Functions)
    N += !FR.S.ok();
  return N;
}

Status ModulePipelineResult::combinedStatus() const {
  Status Out;
  for (const FunctionPipelineResult &FR : Functions)
    if (!FR.S.ok())
      Out.append(FR.S, "function '" + FR.Name + "'");
  return Out;
}

std::uint64_t ModulePipelineResult::totalHits() const {
  std::uint64_t N = 0;
  for (const FunctionPipelineResult &FR : Functions)
    N += FR.Hits;
  return N;
}

std::uint64_t ModulePipelineResult::totalMisses() const {
  std::uint64_t N = 0;
  for (const FunctionPipelineResult &FR : Functions)
    N += FR.Misses;
  return N;
}

std::vector<PassInstrumentation::Record>
ModulePipelineResult::aggregatePassRecords() const {
  // Sum by pipeline position. A failed function contributes records only
  // for the passes that ran on it, so positions can be ragged.
  std::vector<PassInstrumentation::Record> Agg;
  for (const FunctionPipelineResult &FR : Functions)
    for (std::size_t P = 0; P != FR.Passes.size(); ++P) {
      if (Agg.size() <= P)
        Agg.push_back({FR.Passes[P].Pass, 0, 0, 0, 0});
      Agg[P].Seconds += FR.Passes[P].Seconds;
      Agg[P].AnalysisHits += FR.Passes[P].AnalysisHits;
      Agg[P].AnalysisMisses += FR.Passes[P].AnalysisMisses;
      Agg[P].AllocBytes += FR.Passes[P].AllocBytes;
    }
  return Agg;
}

std::vector<FunctionAnalysisManager::Counter>
ModulePipelineResult::aggregateCounters() const {
  // Every snapshot is sorted by name; merging keeps Out sorted too.
  std::vector<FunctionAnalysisManager::Counter> Out;
  for (const FunctionPipelineResult &FR : Functions)
    for (const FunctionAnalysisManager::Counter &C : FR.Counters) {
      auto It = std::lower_bound(
          Out.begin(), Out.end(), C.Name,
          [](const FunctionAnalysisManager::Counter &A,
             const std::string &Name) { return A.Name < Name; });
      if (It == Out.end() || It->Name != C.Name)
        It = Out.insert(It, {C.Name, 0, 0});
      It->Hits += C.Hits;
      It->Misses += C.Misses;
    }
  return Out;
}

void ModulePipelineResult::printReport(std::FILE *Out) const {
  std::fprintf(Out, "===-------------------------------------------===\n");
  std::fprintf(Out, "   ... Pass execution timing (%u functions) ...\n",
               unsigned(Functions.size()));
  std::fprintf(Out, "===-------------------------------------------===\n");
  std::vector<PassInstrumentation::Record> Agg = aggregatePassRecords();
  double Total = 0;
  for (const PassInstrumentation::Record &R : Agg)
    Total += R.Seconds;
  for (const PassInstrumentation::Record &R : Agg)
    std::fprintf(Out,
                 "  %10.6fs (%5.1f%%)  %-14s analyses: %llu reused, "
                 "%llu computed; %llu KiB allocated\n",
                 R.Seconds, Total > 0 ? 100.0 * R.Seconds / Total : 0.0,
                 R.Pass.c_str(), (unsigned long long)R.AnalysisHits,
                 (unsigned long long)R.AnalysisMisses,
                 (unsigned long long)(R.AllocBytes / 1024));
  std::fprintf(Out, "  %10.6fs (100.0%%)  total\n", Total);

  std::fprintf(Out, "===-------------------------------------------===\n");
  std::fprintf(Out, "            ... Analysis cache hit/miss ...\n");
  std::fprintf(Out, "===-------------------------------------------===\n");
  std::uint64_t Hits = 0, Misses = 0;
  for (const FunctionAnalysisManager::Counter &C : aggregateCounters()) {
    std::fprintf(Out, "  %-14s %6llu hit(s), %6llu miss(es)\n",
                 C.Name.c_str(), (unsigned long long)C.Hits,
                 (unsigned long long)C.Misses);
    Hits += C.Hits;
    Misses += C.Misses;
  }
  double Rate =
      Hits + Misses ? 100.0 * double(Hits) / double(Hits + Misses) : 0.0;
  std::fprintf(Out, "  %-14s %6llu hit(s), %6llu miss(es) (%.1f%% hit rate)\n",
               "total", (unsigned long long)Hits, (unsigned long long)Misses,
               Rate);

  std::fprintf(Out, "===-------------------------------------------===\n");
  std::fprintf(Out, "        ... Per-function task budgets ...\n");
  std::fprintf(Out, "===-------------------------------------------===\n");
  for (const FunctionPipelineResult &FR : Functions) {
    if (FR.S.ok())
      std::fprintf(Out, "  %10.6fs %8llu KiB  %-20s ok\n", FR.TaskSeconds,
                   (unsigned long long)(FR.TaskAllocBytes / 1024),
                   FR.Name.c_str());
    else
      std::fprintf(Out, "  %10.6fs %8llu KiB  %-20s FAILED (%s%s)\n",
                   FR.TaskSeconds,
                   (unsigned long long)(FR.TaskAllocBytes / 1024),
                   FR.Name.c_str(), taskFailureKindName(FR.FailKind),
                   FR.Restored ? ", original restored" : "");
  }
}

void ModulePipelineResult::printFailureReport(std::FILE *Out) const {
  unsigned Failed = numFailed();
  if (!Failed)
    return;
  std::fprintf(Out, "depflow: degraded: %u of %u function(s) failed%s\n",
               Failed, unsigned(Functions.size()),
               Failed < Functions.size()
                   ? "; every other function completed normally"
                   : "");
  for (const FunctionPipelineResult &FR : Functions) {
    if (FR.S.ok())
      continue;
    std::fprintf(Out, "  function '%s': cause %s%s%s: %s\n", FR.Name.c_str(),
                 taskFailureKindName(FR.FailKind),
                 FR.FailPass.empty() ? "" : " in pass --",
                 FR.FailPass.c_str(), FR.S.str().c_str());
    std::fprintf(Out,
                 "    task: %.6fs, %llu KiB allocated, %llu analysis "
                 "hit(s), %llu miss(es)%s\n",
                 FR.TaskSeconds,
                 (unsigned long long)(FR.TaskAllocBytes / 1024),
                 (unsigned long long)FR.Hits, (unsigned long long)FR.Misses,
                 FR.Restored ? "; original text preserved in output"
                             : "; original text NOT restored");
  }
}

//===----------------------------------------------------------------------===//
// The driver
//===----------------------------------------------------------------------===//

ModulePipelineResult
depflow::runPipelineOnModule(Module &M, const PassPipeline &Pipe,
                             const ModulePipelineOptions &Opts) {
  const unsigned N = M.numFunctions();
  ModulePipelineResult R;
  R.Functions.resize(N);

  // Each task owns one function end to end: its analysis manager, its
  // instrumentation, and its result slot. Nothing here is shared between
  // tasks except the read-only pipeline/options. The pool writes the
  // task's telemetry around this body, outside its budget window.
  auto RunOne = [&](unsigned I) -> obs::TaskFailure {
    Function &F = *M.function(I);
    FunctionPipelineResult &FR = R.Functions[I];
    FR.Name = F.name();

    // Restoration input for KeepGoing, snapshotted before the task's
    // budget window opens so it is never charged to the task.
    std::string OriginalText;
    if (Opts.KeepGoing)
      OriginalText = printFunction(F);

    const auto T0 = std::chrono::steady_clock::now();
    const std::uint64_t B0 = obs::threadAllocatedBytes();
    struct TaskBody {
      FunctionAnalysisManager AM;
      PassInstrumentation PI;
      explicit TaskBody(Function &Fn) : AM(Fn) {}
    };
    // Declared outside the fault window: the result-commitment reads below
    // (records/counters snapshots) allocate, and must not be eligible to
    // consume an armed alloc-fail — a bad_alloc there would escape the
    // catch blocks. Constructed inside the try, so an in-task bad_alloc
    // during manager construction is still caught.
    std::unique_ptr<TaskBody> Body;
    const char *FailPassName = "";
    {
      // The scope itself allocates nothing, so everything the task
      // allocates — including the manager and instrumentation below — is
      // inside the byte budget and the alloc-fail window, and every
      // resulting bad_alloc unwinds into the catch blocks here.
      TaskScope Scope(FR.Name.c_str(), B0, Opts.MaxTaskBytes,
                      Opts.MaxPassMillis);
      try {
        Body = std::make_unique<TaskBody>(F);
        Body->PI.PrintAfterAll = Opts.PrintAfterAll;
        Body->PI.DotAfterAll = Opts.DotAfterAll;
        Body->PI.Out = Opts.DumpOut;
        for (PassId P : Pipe.passes()) {
          taskPassBegin(passName(P));
          Body->PI.beforePass(P, Body->AM);
          // Pass-boundary fault checkpoint inside the pass's span, so an
          // injected slow-pass shows up in the pass's own timing.
          if (Status FS = faultPassCheckpoint(passName(P)); !FS.ok()) {
            FR.S = FS;
            FR.FailKind = TaskFailureKind::FaultInjected;
            break;
          }
          Status S = depflow::runPass(F, P, Body->AM, Pipe.options());
          if (!S.ok()) {
            FR.S = S;
            FR.FailKind = TaskFailureKind::PassError;
            break;
          }
          Body->PI.afterPass(P, F, Body->AM);
          if (Status DS = taskPassDeadlineCheck(); !DS.ok()) {
            FR.S = DS;
            FR.FailKind = TaskFailureKind::DeadlineExceeded;
            break;
          }
          if (Opts.AfterPass)
            Opts.AfterPass(I, P, F, Body->AM);
        }
      } catch (const FaultInjectedError &E) {
        FR.S = Status::error(E.what());
        FR.FailKind = TaskFailureKind::FaultInjected;
      } catch (const TaskDeadlineError &E) {
        FR.S = Status::error(E.what());
        FR.FailKind = TaskFailureKind::DeadlineExceeded;
      } catch (const std::bad_alloc &) {
        // The budget/fault flags are one-shot, so allocation works again
        // here: classification and diagnostics may build strings.
        if (Scope.byteBudgetBreached()) {
          FR.S = Status::error(
              "task exceeded --max-task-bytes=" +
              std::to_string(Opts.MaxTaskBytes) + " (allocation refused)");
          FR.FailKind = TaskFailureKind::MemoryBudget;
        } else if (Scope.allocFaultFired()) {
          FR.S = Status::error("fault injected: alloc-fail (allocation "
                               "refused by --fault-inject)");
          FR.FailKind = TaskFailureKind::FaultInjected;
        } else {
          FR.S = Status::error("out of memory");
          FR.FailKind = TaskFailureKind::OutOfMemory;
        }
      } catch (const std::exception &E) {
        FR.S = Status::error(std::string("uncaught exception: ") + E.what());
        FR.FailKind = TaskFailureKind::Exception;
      }
      // A pointer into the static pass-name table — safe to read after the
      // scope closes, and copying it here would allocate inside the fault
      // window.
      FailPassName = Scope.passInFlight();
    }
    FR.TaskSeconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - T0)
                         .count();
    FR.TaskAllocBytes = obs::threadAllocatedBytes() - B0;
    if (Body) {
      FR.Passes = Body->PI.records();
      FR.Counters = Body->AM.counterSnapshot();
      FR.Hits = Body->AM.totalHits();
      FR.Misses = Body->AM.totalMisses();
    }
    if (!FR.S.ok())
      FR.FailPass = FailPassName;

    // KeepGoing degradation: put the function's original text back via a
    // print → parse round trip. Tasks own distinct module slots, so
    // concurrent restores never race.
    if (!FR.S.ok() && Opts.KeepGoing) {
      ParseResult PR = parseFunction(OriginalText);
      if (PR.ok() && M.replaceFunction(I, std::move(PR.Fn)).ok())
        FR.Restored = true;
      else
        FR.S.addError("additionally: restoring the original function text "
                      "failed");
    }

    if (FR.S.ok())
      return {};
    return {taskFailureKindName(FR.FailKind), FR.FailPass.c_str(),
            FR.Restored};
  };

  // One dependence level whose width is the function count. Per-pass
  // dumps interleave between functions; keep them ordered by keeping the
  // run serial.
  const bool Dumping = Opts.PrintAfterAll || Opts.DotAfterAll;
  obs::LevelPool Pool("module-pipeline", Dumping ? 1 : Opts.Jobs, N);
  Pool.runLevel(
      N, [&](unsigned I) { return M.function(I)->name(); }, RunOne);
  Pool.finish();
  return R;
}
