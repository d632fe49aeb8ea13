//===- obs/Sched.cpp - Scheduler telemetry and critical-path report -------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "obs/Sched.h"

#include "obs/EventLog.h"
#include "obs/Trace.h"
#include "support/Statistic.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <utility>

using namespace depflow;
using namespace depflow::obs;

// The deterministic scheduler counters: inputs are schedule structure only
// (counts, widths, level indices), never clocks or worker attribution, so
// every one is byte-identical for any -j N.
DEPFLOW_STATISTIC(NumSchedRuns, "sched",
                  "Parallel runs observed by the scheduler telemetry");
DEPFLOW_STATISTIC(NumSchedTasks, "sched",
                  "Tasks scheduled across all parallel runs");
DEPFLOW_STATISTIC(NumSchedLevels, "sched",
                  "Dependence levels executed across all parallel runs");
DEPFLOW_STATISTIC(NumSchedTasksFailed, "sched",
                  "Scheduled tasks that failed (fault, budget, deadline)");
DEPFLOW_MAX_STATISTIC(MaxSchedReadyWidth, "sched",
                      "Widest ready set: most tasks simultaneously runnable "
                      "by construction");
DEPFLOW_HIST_STATISTIC(HistSchedTaskDepth, "sched",
                       "Per-task dependency depth (its level index)");

//===----------------------------------------------------------------------===//
// LevelPool
//===----------------------------------------------------------------------===//

unsigned LevelPool::resolveJobs(unsigned Jobs) {
  if (Jobs)
    return Jobs;
  unsigned N = std::thread::hardware_concurrency();
  return N ? N : 1;
}

LevelPool::LevelPool(const char *Run, unsigned Jobs, unsigned MaxWidth)
    : Run(Run), Jobs(std::max(1u, std::min(resolveJobs(Jobs), MaxWidth))),
      MaxWidth(MaxWidth), BeginUs(TraceRecorder::global().nowUs()),
      Recording(SchedRecorder::global().enabled()) {
  ++NumSchedRuns;
  LogEvent(LogLevel::Info, "sched", "run-start")
      .field("run", Run)
      .field("jobs", this->Jobs);
  if (this->Jobs > 1) {
    Workers.reserve(this->Jobs);
    for (unsigned W = 0; W != this->Jobs; ++W)
      Workers.emplace_back(&LevelPool::workerMain, this, W);
  }
}

LevelPool::~LevelPool() { stopWorkers(); }

void LevelPool::stopWorkers() {
  if (Workers.empty())
    return;
  Stop = true;
  Go.release(std::ptrdiff_t(Workers.size()));
  for (std::thread &T : Workers)
    T.join();
  Workers.clear();
}

void LevelPool::workerMain(unsigned Worker) {
  // Named tracks: the trace viewer shows one lane per worker with its task
  // spans stacked on it.
  if (TraceRecorder::global().enabled())
    TraceRecorder::global().setCurrentThreadName("worker-" +
                                                 std::to_string(Worker));
  for (;;) {
    Go.acquire();
    if (Stop)
      return;
    for (unsigned I; (I = Next.fetch_add(1, std::memory_order_relaxed)) <
                     LevelWidth;) {
      try {
        runTask(*Current, I, Worker);
      } catch (...) {
        std::lock_guard<std::mutex> G(ErrorLock);
        if (!Error)
          Error = std::current_exception();
      }
    }
    if (Busy.fetch_sub(1, std::memory_order_acq_rel) == 1)
      LevelDone.release();
  }
}

void LevelPool::runLevel(unsigned Width, const LevelTasks &T) {
  assert(Width <= MaxWidth && "level wider than the pool was sized for");
  // The deterministic counters: structure only, bumped by the caller.
  ++NumSchedLevels;
  MaxSchedReadyWidth.update(Width);
  for (unsigned I = 0; I != Width; ++I) {
    ++NumSchedTasks;
    HistSchedTaskDepth.sample(Level);
  }

  if (Recording)
    Records.resize(LevelBase + Width);
  LevelBeginUs = TraceRecorder::global().nowUs();
  if (Width <= 1 || Workers.empty()) {
    for (unsigned I = 0; I != Width; ++I)
      runTask(T, I, 0);
  } else {
    // Wake only as many workers as the level has tasks.
    const unsigned N = std::min(Width, unsigned(Workers.size()));
    Current = &T;
    LevelWidth = Width;
    Next.store(0, std::memory_order_relaxed);
    Busy.store(N, std::memory_order_relaxed);
    Go.release(N);
    LevelDone.acquire();
    std::lock_guard<std::mutex> G(ErrorLock);
    if (Error)
      std::rethrow_exception(std::exchange(Error, nullptr));
  }
  LevelBase += Width;
  ++Level;
}

void LevelPool::runTask(const LevelTasks &T, unsigned I, unsigned Worker) {
  const bool Journal = EventLogger::global().enabled();
  const bool Trace = TraceRecorder::global().enabled();
  TaskRecord R;
  R.Run = Run;
  R.Level = Level;
  R.Worker = Worker;
  R.EnqueueUs = LevelBeginUs;
  if (Journal || Trace || Recording)
    R.Name = T.NameOf(T.Name, I);

  // Start stamp and task-start line before the body, so a budget window
  // the body opens never pays for them.
  R.StartUs = TraceRecorder::global().nowUs();
  if (Journal)
    LogEvent(LogLevel::Info, "sched", "task-start")
        .field("run", R.Run)
        .field("task", R.Name)
        .field("worker", R.Worker)
        .field("sched_level", R.Level)
        .field("enqueue_us", R.EnqueueUs);
  R.Failure = T.Call(T.Body, I);
  R.EndUs = TraceRecorder::global().nowUs();
  R.Failed = R.Failure.Kind != nullptr;

  if (R.Failed) {
    ++NumSchedTasksFailed;
    Failed.fetch_add(1, std::memory_order_relaxed);
  }
  if (Journal) {
    LogEvent E(R.Failed ? LogLevel::Warn : LogLevel::Debug, "sched",
               R.Failed ? "task-failed" : "task-commit");
    E.field("run", R.Run)
        .field("task", R.Name)
        .field("worker", R.Worker)
        .field("sched_level", R.Level)
        .field("dur_us", R.EndUs - R.StartUs);
    if (R.Failed)
      E.field("kind", R.Failure.Kind)
          .field("pass", R.Failure.Pass)
          .field("restored", R.Failure.Restored);
  }
  // The task span, recorded once the task is over; it encloses every span
  // the body opened on this thread. The args let tools/trace_analyze.py
  // rebuild the schedule offline.
  if (Trace) {
    TraceEvent E;
    E.Name = R.Name;
    E.Category = "task";
    E.TsUs = R.StartUs;
    E.DurUs = R.EndUs - R.StartUs;
    E.Args = {{"run", R.Run},
              {"level", std::to_string(R.Level)},
              {"worker", std::to_string(R.Worker)},
              {"enqueue_us", std::to_string(R.EnqueueUs)}};
    TraceRecorder::global().record(std::move(E));
  }
  if (Recording)
    Records[LevelBase + I] = std::move(static_cast<SchedTask &>(R));
}

void LevelPool::finish() {
  stopWorkers();
  const double EndUs = TraceRecorder::global().nowUs();
  LogEvent(LogLevel::Info, "sched", "run-end")
      .field("run", Run)
      .field("jobs", Jobs)
      .field("tasks", LevelBase)
      .field("levels", Level)
      .field("failed", Failed.load(std::memory_order_relaxed))
      .field("wall_us", EndUs - BeginUs);
  if (Recording) {
    SchedRun SR;
    SR.Name = Run;
    SR.Jobs = Jobs;
    SR.NumLevels = Level;
    SR.MaxReady = MaxWidth;
    SR.BeginUs = BeginUs;
    SR.EndUs = EndUs;
    SR.Tasks = std::move(Records);
    SchedRecorder::global().record(std::move(SR));
  }
}

//===----------------------------------------------------------------------===//
// SchedRecorder
//===----------------------------------------------------------------------===//

SchedRecorder &SchedRecorder::global() {
  static SchedRecorder R; // Meyers singleton: safe across static-init order.
  return R;
}

void SchedRecorder::record(SchedRun R) {
  std::lock_guard<std::mutex> G(Lock);
  Runs.push_back(std::move(R));
}

std::vector<SchedRun> SchedRecorder::snapshot() const {
  std::lock_guard<std::mutex> G(Lock);
  return Runs;
}

void SchedRecorder::reset() {
  std::lock_guard<std::mutex> G(Lock);
  Runs.clear();
}

//===----------------------------------------------------------------------===//
// Analysis
//===----------------------------------------------------------------------===//

SchedRunReport depflow::obs::analyzeSchedRun(const SchedRun &R) {
  SchedRunReport Rep;
  Rep.WallUs = R.EndUs > R.BeginUs ? R.EndUs - R.BeginUs : 0;
  Rep.Workers.assign(std::max(1u, R.Jobs), SchedWorkerStat{});

  // Critical path: every level ends with a barrier, so a run can never
  // finish before the sum over levels of each level's slowest task.
  std::vector<double> LevelMax(std::max(1u, R.NumLevels), 0.0);
  for (const SchedTask &T : R.Tasks) {
    double Dur = T.EndUs > T.StartUs ? T.EndUs - T.StartUs : 0;
    Rep.WorkUs += Dur;
    unsigned L = T.Level < LevelMax.size() ? T.Level : unsigned(
                     LevelMax.size() - 1);
    LevelMax[L] = std::max(LevelMax[L], Dur);
    unsigned W = T.Worker < Rep.Workers.size() ? T.Worker : unsigned(
                     Rep.Workers.size() - 1);
    Rep.Workers[W].BusyUs += Dur;
    ++Rep.Workers[W].Tasks;
    if (T.Failed)
      ++Rep.FailedTasks;
  }
  for (double M : LevelMax)
    Rep.CriticalPathUs += M;

  Rep.AchievableSpeedup =
      Rep.CriticalPathUs > 0 ? Rep.WorkUs / Rep.CriticalPathUs : 1;
  Rep.MeasuredSpeedup = Rep.WallUs > 0 ? Rep.WorkUs / Rep.WallUs : 1;
  return Rep;
}

std::string depflow::obs::renderSchedReport(const std::vector<SchedRun> &Runs) {
  std::string Out;
  char Buf[256];
  auto Append = [&Out](const char *S) { Out += S; };
  Append("=== scheduler report ===\n");
  if (Runs.empty()) {
    Append("(no parallel runs recorded)\n");
    return Out;
  }
  for (const SchedRun &R : Runs) {
    SchedRunReport Rep = analyzeSchedRun(R);
    std::snprintf(Buf, sizeof(Buf),
                  "run %s: jobs=%u tasks=%zu levels=%u max-ready=%u%s\n",
                  R.Name.c_str(), R.Jobs, R.Tasks.size(), R.NumLevels,
                  R.MaxReady,
                  Rep.FailedTasks
                      ? (" failed=" + std::to_string(Rep.FailedTasks)).c_str()
                      : "");
    Out += Buf;
    std::snprintf(Buf, sizeof(Buf),
                  "  wall %.3f ms  work %.3f ms  critical-path %.3f ms\n",
                  Rep.WallUs / 1000.0, Rep.WorkUs / 1000.0,
                  Rep.CriticalPathUs / 1000.0);
    Out += Buf;
    std::snprintf(Buf, sizeof(Buf),
                  "  speedup: measured %.2fx  achievable (work / "
                  "critical-path) %.2fx\n",
                  Rep.MeasuredSpeedup, Rep.AchievableSpeedup);
    Out += Buf;
    for (std::size_t W = 0; W != Rep.Workers.size(); ++W) {
      double Util =
          Rep.WallUs > 0 ? Rep.Workers[W].BusyUs / Rep.WallUs : 0;
      std::snprintf(Buf, sizeof(Buf),
                    "  worker %zu: busy %.3f ms (%.1f%% utilization), "
                    "%u task(s)\n",
                    W, Rep.Workers[W].BusyUs / 1000.0, Util * 100.0,
                    Rep.Workers[W].Tasks);
      Out += Buf;
    }
  }
  return Out;
}
