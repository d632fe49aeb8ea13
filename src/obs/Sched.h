//===- obs/Sched.h - Scheduler telemetry and critical-path report -*- C++ -*-=//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one scheduler of both parallel drivers — the ModulePipeline
/// function tasks and the SDG level-parallel build — and its telemetry.
/// Both schedules are *level-structured*: tasks within a level are
/// independent (function tasks trivially; SDG SCC tasks by the
/// condensation order) and a barrier separates consecutive levels.
/// `LevelPool` runs that shape, which makes the analysis here exact:
///
///   * **Critical path** = Σ over levels of the most expensive task in the
///     level. Because every level ends with a barrier, the wall-clock of a
///     run can never beat this sum, so `wall >= critical path` is an
///     invariant the tests assert, not a modeling assumption.
///   * **Achievable speedup** = total work / critical path — the
///     dependence-theoretic bound implied by the paper's representations.
///     Measured speedup = total work / wall; the bound dominates it by the
///     same barrier argument.
///   * **Per-worker utilization** = busy / wall, where busy sums the
///     worker's task spans. One worker's spans are disjoint, so
///     utilization <= 1 per worker.
///
/// Every task yields one `TaskRecord`, from which the pool derives, in
/// one place, the `task` trace span, the `task-start` / `task-commit` /
/// `task-failed` journal lines, the `sched` counters and the `SchedRun`:
///
///   * `SchedRecorder` (+`analyzeSchedRun`/`renderSchedReport`): wall-time
///     records behind `--sched-report` and the depflow-stats `sched`
///     section, on the trace recorder's clock.
///   * The **deterministic `sched` counter group**: derived from schedule
///     *structure* only (task counts, level widths, level depths — never
///     clocks or worker ids), so it is byte-identical at any `-j N`.
///
//===----------------------------------------------------------------------===//

#ifndef DEPFLOW_OBS_SCHED_H
#define DEPFLOW_OBS_SCHED_H

#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <semaphore>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

namespace depflow {
namespace obs {

/// One scheduled task as a recorded run keeps it. Timestamps are
/// microseconds on the trace recorder's epoch; `Worker` is the pool slot
/// that executed the task (0 for a serial run or an inline level).
struct SchedTask {
  std::string Name;
  unsigned Level = 0;
  unsigned Worker = 0;
  double EnqueueUs = 0; // When the task became ready (its level opened).
  double StartUs = 0;   // When a worker began executing it.
  double EndUs = 0;     // When its results were committed.
  bool Failed = false;
};

/// How a task ended, as its body reports it. `Kind == nullptr` means the
/// task succeeded; the strings must outlive the pool's run.
struct TaskFailure {
  const char *Kind = nullptr; // Classification ("pass-error", ...).
  const char *Pass = "";      // The pass in flight, "" if none.
  bool Restored = false;      // The original input was put back.
};

/// The one per-task telemetry record: the stamps a run keeps, plus the
/// run name and the failure facts only the journal carries.
struct TaskRecord : SchedTask {
  const char *Run = "";
  TaskFailure Failure;
};

/// One parallel run: a level-structured task DAG executed on `Jobs`
/// workers between `BeginUs` and `EndUs`.
struct SchedRun {
  std::string Name; // "module-pipeline" or "sdg-build".
  unsigned Jobs = 1; // The pool size: min(requested jobs, widest level).
  unsigned NumLevels = 1;
  unsigned MaxReady = 0; // Widest level = max simultaneously-ready tasks.
  double BeginUs = 0;
  double EndUs = 0;
  std::vector<SchedTask> Tasks;
};

struct SchedWorkerStat {
  double BusyUs = 0;
  unsigned Tasks = 0;
};

/// The derived quantities `--sched-report` prints; see the file comment
/// for the definitions and the invariants relating them.
struct SchedRunReport {
  double WallUs = 0;
  double WorkUs = 0;
  double CriticalPathUs = 0;
  double AchievableSpeedup = 1; // WorkUs / CriticalPathUs.
  double MeasuredSpeedup = 1;   // WorkUs / WallUs.
  unsigned FailedTasks = 0;
  std::vector<SchedWorkerStat> Workers; // Indexed by worker id, size Jobs.
};

/// Computes the report quantities for one recorded run.
SchedRunReport analyzeSchedRun(const SchedRun &R);

/// Wall-time run records behind `--sched-report`. Disabled by default;
/// drivers opt in, and every LevelPool run records one `SchedRun`.
class SchedRecorder {
  std::atomic<bool> Enabled{false};
  mutable std::mutex Lock;
  std::vector<SchedRun> Runs;

  SchedRecorder() = default;

public:
  SchedRecorder(const SchedRecorder &) = delete;
  SchedRecorder &operator=(const SchedRecorder &) = delete;

  static SchedRecorder &global();

  void setEnabled(bool On) { Enabled.store(On, std::memory_order_relaxed); }
  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }

  /// Appends one completed run (thread-safe; LevelPool::finish calls it
  /// after its workers join).
  void record(SchedRun R);

  std::vector<SchedRun> snapshot() const;

  /// Drops every recorded run.
  void reset();
};

/// Renders the human-readable `--sched-report` text for \p Runs.
std::string renderSchedReport(const std::vector<SchedRun> &Runs);

/// The thread pool both parallel drivers run on: levels of independent
/// tasks, a barrier between consecutive levels.
///
///   * min(Jobs, MaxWidth) workers start in the constructor and live until
///     finish(): threads are created once per run, not once per level.
///   * Workers claim item indices from one atomic counter; each item runs
///     on exactly one worker. Bodies commit results by index, so output
///     does not depend on the job count.
///   * With two or more workers the caller only coordinates, so its
///     allocation tally (obs::AllocDelta) does not depend on the schedule.
///     A level of width <= 1, and every level of a one-worker pool, runs
///     inline on the caller as worker 0.
///   * The start stamp and `task-start` line precede the body, so a budget
///     window the body opens (`TaskScope`) never pays for telemetry. With
///     the journal, the trace and the sched recorder off, no task name is
///     built and dispatch allocates nothing.
class LevelPool {
public:
  /// Opens run \p Run (a static string) whose levels are at most
  /// \p MaxWidth tasks wide, and starts the workers.
  LevelPool(const char *Run, unsigned Jobs, unsigned MaxWidth);
  /// Joins the workers if an exception skipped finish().
  ~LevelPool();

  LevelPool(const LevelPool &) = delete;
  LevelPool &operator=(const LevelPool &) = delete;

  /// The worker count `Jobs` resolves to before the width clamp: \p Jobs,
  /// or one per hardware thread (min 1) when it is 0.
  static unsigned resolveJobs(unsigned Jobs);

  /// Runs the next level: \p Body(I) for every I < \p Width, then the
  /// barrier. \p Body returns void or a TaskFailure. \p Name(I) returns
  /// the task's name as a std::string and is called only while a
  /// telemetry sink is on. Both are called concurrently from the workers.
  /// An exception a task throws on a worker is rethrown here after the
  /// barrier (the first one, if several tasks throw).
  template <typename NameT, typename BodyT>
  void runLevel(unsigned Width, const NameT &Name, const BodyT &Body) {
    runLevel(Width,
             LevelTasks{&Name, &Body,
                        [](const void *N, unsigned I) -> std::string {
                          return (*static_cast<const NameT *>(N))(I);
                        },
                        [](const void *B, unsigned I) -> TaskFailure {
                          const BodyT &F = *static_cast<const BodyT *>(B);
                          if constexpr (std::is_void_v<decltype(F(I))>) {
                            F(I);
                            return {};
                          } else {
                            return F(I);
                          }
                        }});
  }

  /// Stops and joins the workers, writes the `run-end` journal line and
  /// hands the run's SchedRun to the recorder.
  void finish();

private:
  /// One level's tasks, type-erased without std::function (no per-task
  /// heap work for dispatch).
  struct LevelTasks {
    const void *Name;
    const void *Body;
    std::string (*NameOf)(const void *Name, unsigned I);
    TaskFailure (*Call)(const void *Body, unsigned I);
  };

  void runLevel(unsigned Width, const LevelTasks &T);
  void runTask(const LevelTasks &T, unsigned I, unsigned Worker);
  void workerMain(unsigned Worker);
  void stopWorkers();

  const char *Run;
  unsigned Jobs = 1;
  unsigned MaxWidth;
  double BeginUs = 0;
  bool Recording = false;         // The sched recorder was on at start.
  std::vector<SchedTask> Records; // One per task run, while Recording.
  std::atomic<unsigned> Failed{0};

  // The open level, written by the caller before it releases the workers
  // (Go.release publishes it; Go.acquire makes it visible to a worker).
  unsigned Level = 0;     // Index of the open level; at the end, the count.
  unsigned LevelBase = 0; // Tasks run before the open level.
  double LevelBeginUs = 0;
  const LevelTasks *Current = nullptr;
  unsigned LevelWidth = 0;
  bool Stop = false;
  std::atomic<unsigned> Next{0};

  // The barrier: the caller releases one Go permit per worker the level
  // needs, and the last of them to finish releases LevelDone.
  std::counting_semaphore<> Go{0};
  std::binary_semaphore LevelDone{0};
  std::atomic<unsigned> Busy{0}; // Released workers still in the level.
  std::mutex ErrorLock;
  std::exception_ptr Error; // First exception a worker's task threw.
  std::vector<std::thread> Workers;
};

} // namespace obs
} // namespace depflow

#endif // DEPFLOW_OBS_SCHED_H
