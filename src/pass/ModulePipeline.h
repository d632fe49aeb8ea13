//===- pass/ModulePipeline.h - Parallel module pipeline driver --*- C++ -*-===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs a textual `PassPipeline` over every function of a `Module` on the
/// shared `obs::LevelPool` (obs/Sched.h). The paper's algorithms (cycle
/// equivalence, SESE/PST, DFG construction, the dataflow engines) are all
/// per-function, which makes module throughput embarrassingly parallel:
/// the whole module is one pool level, one task per function.
///
///   * **Static, work-stealing-free scheduling.** Workers claim function
///     indices from the pool's atomic counter; each function is processed
///     by exactly one worker, start to finish.
///   * **One FunctionAnalysisManager per function task.** Analysis caches
///     are created inside the task and die with it — no cached structure
///     is ever visible to two threads, so there is nothing to lock and
///     nothing to invalidate across functions.
///   * **Results committed in input order.** Every per-function result is
///     written to a pre-sized slot indexed by the function's module
///     position; aggregation walks the slots in that order after the
///     level's barrier. Output, per-pass reuse counts, and per-analysis
///     hit/miss tables are therefore bit-identical for any `-j N` (wall
///     times are per-run measurements and naturally vary).
///
/// Failures do not stop the module: a function whose pipeline fails keeps
/// its failing Status in its slot while the other functions complete.
///
/// **Failure isolation & budgets.** Each function runs inside a
/// `TaskScope` (support/FaultInjection.h): an armed fault point, the
/// per-task byte budget (`MaxTaskBytes`, enforced at the counting
/// allocation hooks), and the cooperative per-pass deadline
/// (`MaxPassMillis`, checked at pass and analysis boundaries) can each
/// fail the task — by Status or by exception (bad_alloc,
/// FaultInjectedError, TaskDeadlineError), all caught at the task
/// boundary. Under `KeepGoing` the failed function's original text is
/// restored into the module (print → parse round trip into its own slot,
/// safe under any job count), the failure is classified in
/// `TaskFailureKind`, and the run completes degraded: every successful
/// function's output is byte-identical to a clean run.
///
//===----------------------------------------------------------------------===//

#ifndef DEPFLOW_PASS_MODULEPIPELINE_H
#define DEPFLOW_PASS_MODULEPIPELINE_H

#include "ir/Module.h"
#include "pass/PassPipeline.h"

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

namespace depflow {

struct ModulePipelineOptions {
  /// Worker threads; 0 = one per hardware thread (min 1). Clamped to the
  /// number of functions. 1 runs inline on the calling thread.
  unsigned Jobs = 0;

  /// Per-pass IR / graph dumps (PassInstrumentation passthrough). Dumping
  /// interleaves per-function output, so either forces Jobs = 1; the dumps
  /// then appear in input order.
  bool PrintAfterAll = false;
  bool DotAfterAll = false;
  std::FILE *DumpOut = stderr;

  /// Called after each successful pass on each function, from the worker
  /// thread that owns the function. Must be thread-safe; depflow-opt uses
  /// it for --verify-each.
  std::function<void(unsigned FnIndex, PassId P, Function &F,
                     FunctionAnalysisManager &AM)>
      AfterPass;

  /// Keep going on per-function failure: the failed function's original
  /// text is restored into the module and the run completes degraded
  /// (depflow-opt exits 4). Off = first failure still lets the remaining
  /// functions run, but nothing is restored and the caller treats the
  /// module result as an error.
  bool KeepGoing = false;

  /// Cooperative per-pass deadline in milliseconds per function task,
  /// checked at pass boundaries and analysis boundaries. 0 = none.
  std::uint64_t MaxPassMillis = 0;

  /// Per-function-task allocation budget in bytes, enforced exactly at
  /// the obs counting-allocator hooks. 0 = none.
  std::uint64_t MaxTaskBytes = 0;
};

/// Why a function task failed, classified at the task boundary.
enum class TaskFailureKind {
  None,             // Task succeeded.
  PassError,        // A pass returned a failing Status.
  FaultInjected,    // An armed fault point fired (--fault-inject).
  DeadlineExceeded, // --max-pass-millis blown (pass/analysis boundary).
  MemoryBudget,     // --max-task-bytes blown (allocation refused).
  OutOfMemory,      // Real bad_alloc, no budget or fault involved.
  Exception,        // Any other exception escaping the task.
};

/// Stable display name ("pass-error", "memory-budget", ...).
const char *taskFailureKindName(TaskFailureKind K);

/// Everything one function's pipeline run produced, committed at the
/// function's module index.
struct FunctionPipelineResult {
  std::string Name;
  Status S; // Failing pass diagnostics (un-prefixed).
  /// Per executed pass: wall time + analysis reuse deltas, pipeline order.
  std::vector<PassInstrumentation::Record> Passes;
  /// This function's analysis cache counters — per-function by
  /// construction, never shared with another worker.
  std::vector<FunctionAnalysisManager::Counter> Counters;
  std::uint64_t Hits = 0, Misses = 0;

  /// Failure classification; None iff S.ok().
  TaskFailureKind FailKind = TaskFailureKind::None;
  /// The pass in flight when the task failed ("" if none had begun).
  std::string FailPass;
  /// KeepGoing restored the original function text into the module.
  bool Restored = false;
  /// Whole-task wall time and exact allocation volume (budget telemetry,
  /// reported per function by --time-passes and the stats JSON).
  double TaskSeconds = 0;
  std::uint64_t TaskAllocBytes = 0;
};

class ModulePipelineResult {
public:
  /// One slot per module function, in module (= input) order.
  std::vector<FunctionPipelineResult> Functions;

  bool ok() const;
  unsigned numFailed() const;

  /// Every failure, prefixed with its function's name, in input order.
  Status combinedStatus() const;

  /// The structured degradation report: one block per failed function, in
  /// input order — function, failing pass, cause classification, the
  /// Status diagnostics, and the task's counters snapshot.
  void printFailureReport(std::FILE *Out) const;

  std::uint64_t totalHits() const;
  std::uint64_t totalMisses() const;

  /// Per-pass records summed across functions by pipeline position, in
  /// input order — deterministic for any job count.
  std::vector<PassInstrumentation::Record> aggregatePassRecords() const;

  /// Per-analysis hit/miss counters merged by analysis name, sorted by
  /// name — deterministic for any job count.
  std::vector<FunctionAnalysisManager::Counter> aggregateCounters() const;

  /// The module-level --time-passes report: aggregated per-pass table plus
  /// the merged analysis hit/miss table.
  void printReport(std::FILE *Out) const;
};

/// Runs \p Pipe over every function of \p M as described above. Functions
/// are mutated in place; the returned results are in module order.
ModulePipelineResult runPipelineOnModule(Module &M, const PassPipeline &Pipe,
                                         const ModulePipelineOptions &Opts = {});

} // namespace depflow

#endif // DEPFLOW_PASS_MODULEPIPELINE_H
