//===- tests/sched_test.cpp - Scheduler telemetry tests -------------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
// The scheduler contract (obs/Sched.h + obs/EventLog.h): the LevelPool's
// execution guarantees (each item once, by-index results equal to the
// serial run, inline narrow levels, threads created once per run, pool
// size clamped to the widest level), hand-checked critical-path /
// utilization math on a synthetic run, the report invariants on real
// recorded runs (wall >= critical path, utilization <= 1, achievable >=
// measured speedup), byte-identical `sched` counter groups at -j 1 vs
// -j 8 for both parallel drivers, and the event journal's
// ring/drop/ordering semantics.
//
//===----------------------------------------------------------------------===//

#include "obs/EventLog.h"
#include "obs/Sched.h"

#include "pass/ModulePipeline.h"
#include "pass/PassPipeline.h"
#include "sdg/SystemDependenceGraph.h"
#include "support/Statistic.h"
#include "workload/Generators.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

using namespace depflow;
using namespace depflow::obs;

//===----------------------------------------------------------------------===//
// LevelPool execution
//===----------------------------------------------------------------------===//

namespace {

/// What one run of the width ladder observed, per level and item.
struct LadderRun {
  std::vector<std::vector<std::uint64_t>> Results;
  std::vector<std::vector<unsigned>> Runs;
  std::vector<std::vector<std::thread::id>> Threads;
  SchedRun Recorded;
};

const std::vector<unsigned> LadderWidths = {0, 1, 5, 1, 64};

LadderRun runLadder(unsigned Jobs) {
  LadderRun Out;
  SchedRecorder::global().reset();
  SchedRecorder::global().setEnabled(true);
  LevelPool Pool("pool-ladder", Jobs, /*MaxWidth=*/64);
  for (unsigned L = 0; L != LadderWidths.size(); ++L) {
    const unsigned W = LadderWidths[L];
    std::vector<std::uint64_t> Results(W, 0);
    std::unique_ptr<std::atomic<unsigned>[]> Runs(
        new std::atomic<unsigned>[W ? W : 1]());
    std::vector<std::thread::id> Threads(W);
    Pool.runLevel(
        W,
        [&](unsigned I) {
          return "t" + std::to_string(L) + "." + std::to_string(I);
        },
        [&](unsigned I) {
          Runs[I].fetch_add(1, std::memory_order_relaxed);
          Results[I] = std::uint64_t(L) * 1000003u + I * I;
          Threads[I] = std::this_thread::get_id();
        });
    Out.Results.push_back(Results);
    Out.Runs.emplace_back();
    for (unsigned I = 0; I != W; ++I)
      Out.Runs.back().push_back(Runs[I].load());
    Out.Threads.push_back(Threads);
  }
  Pool.finish();
  std::vector<SchedRun> Recorded = SchedRecorder::global().snapshot();
  SchedRecorder::global().setEnabled(false);
  EXPECT_EQ(Recorded.size(), 1u);
  if (!Recorded.empty())
    Out.Recorded = Recorded[0];
  return Out;
}

} // namespace

TEST(LevelPool, LadderRunsEachItemOnceOnBoundedThreads) {
  const LadderRun Serial = runLadder(1);
  for (unsigned Jobs : {1u, 3u, 8u}) {
    SCOPED_TRACE("jobs " + std::to_string(Jobs));
    const LadderRun R = runLadder(Jobs);
    const std::thread::id Caller = std::this_thread::get_id();

    // Each item exactly once; results by index equal the serial run.
    for (const std::vector<unsigned> &Level : R.Runs)
      for (unsigned Count : Level)
        EXPECT_EQ(Count, 1u);
    EXPECT_EQ(R.Results, Serial.Results);

    // Narrow levels run on the calling thread. Wide levels of a
    // multi-worker pool never do: the caller only coordinates.
    std::set<std::thread::id> Distinct;
    for (unsigned L = 0; L != LadderWidths.size(); ++L)
      for (std::thread::id T : R.Threads[L]) {
        if (LadderWidths[L] <= 1 || Jobs == 1) {
          EXPECT_EQ(T, Caller) << "level " << L;
        } else {
          EXPECT_NE(T, Caller) << "level " << L;
          Distinct.insert(T);
        }
      }
    // Threads are created once per run, not once per level.
    EXPECT_LE(Distinct.size(), std::size_t(Jobs));

    // The recorded run: pool size = min(jobs, widest level), every task
    // attributed to a worker below it, one record per task in level order.
    const SchedRun &Run = R.Recorded;
    EXPECT_EQ(Run.Name, "pool-ladder");
    EXPECT_EQ(Run.Jobs, std::min(Jobs, 64u));
    EXPECT_EQ(Run.NumLevels, LadderWidths.size());
    EXPECT_EQ(Run.MaxReady, 64u);
    ASSERT_EQ(Run.Tasks.size(), 71u);
    for (const SchedTask &T : Run.Tasks) {
      EXPECT_LT(T.Worker, Run.Jobs) << T.Name;
      EXPECT_FALSE(T.Failed) << T.Name;
      EXPECT_LE(T.EnqueueUs, T.StartUs) << T.Name;
      EXPECT_LE(T.StartUs, T.EndUs) << T.Name;
    }
    EXPECT_EQ(Run.Tasks[0].Name, "t1.0");
    EXPECT_EQ(Run.Tasks[0].Level, 1u);
    EXPECT_EQ(Run.Tasks[1].Name, "t2.0");
    EXPECT_EQ(Run.Tasks[70].Name, "t4.63");
    EXPECT_EQ(Run.Tasks[70].Level, 4u);
  }
}

TEST(LevelPool, WorkerExceptionReachesTheCaller) {
  // A task that throws on a worker thread must not end the process: the
  // level still meets its barrier and the caller sees the exception, as
  // it would at -j 1.
  for (unsigned Jobs : {1u, 4u}) {
    std::atomic<unsigned> Ran{0};
    LevelPool Pool("pool-throw", Jobs, 8);
    EXPECT_THROW(Pool.runLevel(
                     8, [](unsigned I) { return std::to_string(I); },
                     [&](unsigned I) {
                       Ran.fetch_add(1, std::memory_order_relaxed);
                       if (I == 3)
                         throw std::runtime_error("task 3");
                     }),
                 std::runtime_error)
        << "jobs " << Jobs;
    EXPECT_GE(Ran.load(), 4u);
  }
}

TEST(LevelPool, FailedTasksReachCountersJournalAndRecord) {
  resetStatistics();
  EventLogger &L = EventLogger::global();
  L.reset();
  L.setEnabled(true);
  SchedRecorder::global().reset();
  SchedRecorder::global().setEnabled(true);
  {
    LevelPool Pool("pool-fail", 4, 6);
    Pool.runLevel(
        6, [](unsigned I) { return "f" + std::to_string(I); },
        [](unsigned I) -> TaskFailure {
          if (I % 2)
            return {"pass-error", "constprop", true};
          return {};
        });
    Pool.finish();
  }
  std::vector<std::string> Lines = L.snapshot();
  std::vector<SchedRun> Runs = SchedRecorder::global().snapshot();
  L.setEnabled(false);
  SchedRecorder::global().setEnabled(false);

  EXPECT_EQ(statisticValue("sched", "NumSchedTasksFailed"), 3u);
  ASSERT_EQ(Runs.size(), 1u);
  ASSERT_EQ(Runs[0].Tasks.size(), 6u);
  for (unsigned I = 0; I != 6; ++I)
    EXPECT_EQ(Runs[0].Tasks[I].Failed, I % 2 == 1) << I;

  unsigned Failed = 0, Committed = 0;
  for (const std::string &Line : Lines) {
    // One `level` key per line: the envelope's log level. The schedule
    // level travels as `sched_level`.
    std::size_t First = Line.find("\"level\":");
    ASSERT_NE(First, std::string::npos) << Line;
    EXPECT_EQ(Line.find("\"level\":", First + 1), std::string::npos)
        << Line;
    if (Line.find("\"event\":\"task-failed\",\"run\":\"pool-fail\"") !=
        std::string::npos) {
      ++Failed;
      EXPECT_NE(Line.find("\"kind\":\"pass-error\""), std::string::npos);
      EXPECT_NE(Line.find("\"pass\":\"constprop\""), std::string::npos);
      EXPECT_NE(Line.find("\"restored\":true"), std::string::npos);
      EXPECT_NE(Line.find("\"sched_level\":0"), std::string::npos);
    }
    if (Line.find("\"event\":\"task-commit\"") != std::string::npos)
      ++Committed;
    if (Line.find("\"event\":\"run-end\"") != std::string::npos) {
      EXPECT_NE(Line.find("\"failed\":3"), std::string::npos) << Line;
    }
  }
  EXPECT_EQ(Failed, 3u);
  EXPECT_EQ(Committed, 3u);
}

//===----------------------------------------------------------------------===//
// analyzeSchedRun ground truth
//===----------------------------------------------------------------------===//

namespace {

SchedTask makeTask(const char *Name, unsigned Level, unsigned Worker,
                   double Enqueue, double Start, double End) {
  SchedTask T;
  T.Name = Name;
  T.Level = Level;
  T.Worker = Worker;
  T.EnqueueUs = Enqueue;
  T.StartUs = Start;
  T.EndUs = End;
  return T;
}

} // namespace

TEST(SchedAnalysis, CriticalPathHandChecked) {
  // Mirrors tests/fixtures/sched_trace_golden.json's module-pipeline run:
  // one level of three tasks on two workers, integer microseconds.
  SchedRun Run;
  Run.Name = "module-pipeline";
  Run.Jobs = 2;
  Run.NumLevels = 1;
  Run.MaxReady = 3;
  Run.BeginUs = 0;
  Run.EndUs = 70;
  Run.Tasks = {makeTask("a", 0, 0, 0, 10, 40),
               makeTask("b", 0, 1, 0, 10, 60),
               makeTask("c", 0, 0, 0, 50, 70)};

  SchedRunReport R = analyzeSchedRun(Run);
  EXPECT_DOUBLE_EQ(R.WallUs, 70.0);
  EXPECT_DOUBLE_EQ(R.WorkUs, 100.0);
  EXPECT_DOUBLE_EQ(R.CriticalPathUs, 50.0); // Slowest task of the level.
  EXPECT_DOUBLE_EQ(R.MeasuredSpeedup, 100.0 / 70.0);
  EXPECT_DOUBLE_EQ(R.AchievableSpeedup, 2.0);
  EXPECT_EQ(R.FailedTasks, 0u);
  ASSERT_EQ(R.Workers.size(), 2u);
  EXPECT_DOUBLE_EQ(R.Workers[0].BusyUs, 50.0);
  EXPECT_EQ(R.Workers[0].Tasks, 2u);
  EXPECT_DOUBLE_EQ(R.Workers[1].BusyUs, 50.0);
  EXPECT_EQ(R.Workers[1].Tasks, 1u);
}

TEST(SchedAnalysis, MultiLevelCriticalPathSumsLevelMaxima) {
  // Two levels: CP = max(level 0) + max(level 1) = 20 + 5.
  SchedRun Run;
  Run.Name = "sdg-build";
  Run.Jobs = 2;
  Run.NumLevels = 2;
  Run.MaxReady = 2;
  Run.BeginUs = 100;
  Run.EndUs = 127;
  Run.Tasks = {makeTask("pdg:a", 0, 0, 100, 100, 110),
               makeTask("pdg:b", 0, 1, 100, 100, 120),
               makeTask("scc:0", 1, 0, 120, 122, 127)};
  SchedRunReport R = analyzeSchedRun(Run);
  EXPECT_DOUBLE_EQ(R.WallUs, 27.0);
  EXPECT_DOUBLE_EQ(R.WorkUs, 35.0);
  EXPECT_DOUBLE_EQ(R.CriticalPathUs, 25.0);
  EXPECT_DOUBLE_EQ(R.AchievableSpeedup, 35.0 / 25.0);
}

//===----------------------------------------------------------------------===//
// Report invariants on real recorded runs
//===----------------------------------------------------------------------===//

namespace {

/// Wall/busy clocks carry scheduler noise; the invariants themselves are
/// exact, the epsilon only absorbs the double arithmetic.
void expectRunInvariants(const SchedRun &Run) {
  SchedRunReport R = analyzeSchedRun(Run);
  const double Eps = 1e-6;
  EXPECT_GE(R.WallUs + Eps, R.CriticalPathUs) << Run.Name;
  EXPECT_GE(R.AchievableSpeedup + Eps, R.MeasuredSpeedup) << Run.Name;
  for (std::size_t W = 0; W != R.Workers.size(); ++W)
    EXPECT_LE(R.Workers[W].BusyUs, R.WallUs + Eps)
        << Run.Name << " worker " << W;
}

} // namespace

TEST(SchedRecorder, PipelineRunSatisfiesInvariants) {
  SchedRecorder::global().reset();
  SchedRecorder::global().setEnabled(true);
  std::unique_ptr<Module> M = generateModule(16, 20260808);
  PassPipeline Pipe;
  ASSERT_TRUE(PassPipeline::parse("separate,constprop,pre", Pipe).ok());
  ModulePipelineOptions MPO;
  MPO.Jobs = 4;
  ModulePipelineResult PR = runPipelineOnModule(*M, Pipe, MPO);
  EXPECT_TRUE(PR.ok()) << PR.combinedStatus().str();

  std::vector<SchedRun> Runs = SchedRecorder::global().snapshot();
  SchedRecorder::global().setEnabled(false);
  ASSERT_EQ(Runs.size(), 1u);
  EXPECT_EQ(Runs[0].Name, "module-pipeline");
  EXPECT_EQ(Runs[0].Jobs, 4u);
  EXPECT_EQ(Runs[0].NumLevels, 1u);
  EXPECT_EQ(Runs[0].Tasks.size(), 16u);
  EXPECT_EQ(Runs[0].MaxReady, 16u);
  expectRunInvariants(Runs[0]);
  // The report renderer names the run and both speedup figures.
  std::string Report = renderSchedReport(Runs);
  EXPECT_NE(Report.find("run module-pipeline"), std::string::npos);
  EXPECT_NE(Report.find("critical-path"), std::string::npos);
  EXPECT_NE(Report.find("achievable"), std::string::npos);
}

TEST(SchedRecorder, SdgBuildRunSatisfiesInvariants) {
  SchedRecorder::global().reset();
  SchedRecorder::global().setEnabled(true);
  std::unique_ptr<Module> M = generateCallModule(12, 20260808);
  SDGBuildOptions SO;
  SO.Jobs = 4;
  SystemDependenceGraph G = SystemDependenceGraph::build(*M, SO);
  (void)G;

  std::vector<SchedRun> Runs = SchedRecorder::global().snapshot();
  SchedRecorder::global().setEnabled(false);
  ASSERT_EQ(Runs.size(), 1u);
  EXPECT_EQ(Runs[0].Name, "sdg-build");
  EXPECT_EQ(Runs[0].Jobs, 4u);
  // Level 0 (per-function PDG tasks) plus one level per condensation
  // level; every function contributes a PDG task and every SCC a task.
  EXPECT_GE(Runs[0].NumLevels, 2u);
  EXPECT_GE(Runs[0].Tasks.size(), 12u + 1u);
  EXPECT_GE(Runs[0].MaxReady, 12u);
  expectRunInvariants(Runs[0]);
}

TEST(SchedRecorder, SdgBuildReportsOnlyWorkersThatExist) {
  // The pool is sized min(Jobs, widest level), and the run records that
  // size: no phantom idle workers in the report.
  SchedRecorder::global().reset();
  SchedRecorder::global().setEnabled(true);
  std::unique_ptr<Module> M = generateCallModule(12, 20260808);
  SDGBuildOptions SO;
  SO.Jobs = 64;
  SystemDependenceGraph G = SystemDependenceGraph::build(*M, SO);
  (void)G;

  std::vector<SchedRun> Runs = SchedRecorder::global().snapshot();
  SchedRecorder::global().setEnabled(false);
  ASSERT_EQ(Runs.size(), 1u);
  EXPECT_EQ(Runs[0].Jobs, std::min(64u, Runs[0].MaxReady));
  for (const SchedTask &T : Runs[0].Tasks)
    EXPECT_LT(T.Worker, Runs[0].Jobs) << T.Name;
  EXPECT_EQ(analyzeSchedRun(Runs[0]).Workers.size(), Runs[0].Jobs);
}

//===----------------------------------------------------------------------===//
// Deterministic `sched` counters: byte-identical at any -j
//===----------------------------------------------------------------------===//

namespace {

/// Renders the sched counter group as one string so "byte-identical" is
/// literal: names, values, histogram buckets, in registry order.
std::string schedCountersString() {
  std::ostringstream OS;
  for (const StatisticSnapshot &Row : statisticsSnapshot()) {
    if (Row.Group != "sched")
      continue;
    OS << Row.Name << "=" << Row.Value << " count=" << Row.Count
       << " max=" << Row.Max << " buckets=[";
    for (std::uint64_t B : Row.Buckets)
      OS << B << ",";
    OS << "]\n";
  }
  return OS.str();
}

std::string runBothDriversAndSnapshotSched(unsigned Jobs) {
  resetStatistics();
  std::unique_ptr<Module> M = generateModule(24, 20260807);
  PassPipeline Pipe;
  EXPECT_TRUE(PassPipeline::parse("separate,constprop,pre", Pipe).ok());
  ModulePipelineOptions MPO;
  MPO.Jobs = Jobs;
  ModulePipelineResult PR = runPipelineOnModule(*M, Pipe, MPO);
  EXPECT_TRUE(PR.ok()) << PR.combinedStatus().str();

  std::unique_ptr<Module> CM = generateCallModule(12, 20260807);
  SDGBuildOptions SO;
  SO.Jobs = Jobs;
  SystemDependenceGraph G = SystemDependenceGraph::build(*CM, SO);
  (void)G;
  return schedCountersString();
}

} // namespace

TEST(SchedCounters, ByteIdenticalAcrossJobs) {
  // The sched counters are bumped serially from the task-DAG structure
  // alone (task counts, level widths, dependency depths) — never from
  // clocks or worker identity — so any -j must produce the same bytes.
  std::string J1 = runBothDriversAndSnapshotSched(1);
  std::string J8 = runBothDriversAndSnapshotSched(8);
  EXPECT_FALSE(J1.empty());
  EXPECT_NE(J1.find("NumSchedRuns"), std::string::npos);
  EXPECT_EQ(J1, J8);
}

TEST(SchedCounters, CountStructureNotScheduling) {
  resetStatistics();
  std::unique_ptr<Module> M = generateModule(8, 1);
  PassPipeline Pipe;
  ASSERT_TRUE(PassPipeline::parse("separate,constprop", Pipe).ok());
  ModulePipelineOptions MPO;
  MPO.Jobs = 3;
  ModulePipelineResult PR = runPipelineOnModule(*M, Pipe, MPO);
  ASSERT_TRUE(PR.ok()) << PR.combinedStatus().str();
  EXPECT_EQ(statisticValue("sched", "NumSchedRuns"), 1u);
  EXPECT_EQ(statisticValue("sched", "NumSchedLevels"), 1u);
  EXPECT_EQ(statisticValue("sched", "NumSchedTasks"), 8u);
  EXPECT_EQ(statisticValue("sched", "MaxSchedReadyWidth"), 8u);
  EXPECT_EQ(statisticValue("sched", "NumSchedTasksFailed"), 0u);
}

//===----------------------------------------------------------------------===//
// Event journal semantics
//===----------------------------------------------------------------------===//

TEST(EventLog, RecordsStructuredLinesInTimestampOrder) {
  EventLogger &L = EventLogger::global();
  L.reset();
  L.setEnabled(true);
  L.setMinLevel(LogLevel::Debug);
  LogEvent(LogLevel::Info, "test", "second").field("k", 2u);
  LogEvent(LogLevel::Debug, "test", "third").field("k", std::string("v"));
  std::vector<std::string> Lines = L.snapshot();
  L.setEnabled(false);
  ASSERT_EQ(Lines.size(), 2u);
  EXPECT_NE(Lines[0].find("\"event\":\"second\""), std::string::npos);
  EXPECT_NE(Lines[0].find("\"k\":2"), std::string::npos);
  EXPECT_NE(Lines[1].find("\"level\":\"debug\""), std::string::npos);
  EXPECT_NE(Lines[1].find("\"k\":\"v\""), std::string::npos);
  // Every line is one self-contained JSON object.
  for (const std::string &Line : Lines) {
    EXPECT_EQ(Line.front(), '{');
    EXPECT_EQ(Line.back(), '}');
  }
}

TEST(EventLog, MinLevelFiltersAndDisabledDropsEverything) {
  EventLogger &L = EventLogger::global();
  L.reset();
  L.setEnabled(true);
  L.setMinLevel(LogLevel::Warn);
  LogEvent(LogLevel::Info, "test", "filtered");
  LogEvent(LogLevel::Error, "test", "kept");
  EXPECT_EQ(L.snapshot().size(), 1u);
  L.setEnabled(false);
  LogEvent(LogLevel::Error, "test", "ignored");
  EXPECT_EQ(L.snapshot().size(), 1u);
  L.setMinLevel(LogLevel::Debug);
}

TEST(EventLog, BoundedRingDropsOldestAndCounts) {
  EventLogger &L = EventLogger::global();
  L.reset();
  L.setCapacityPerThread(4);
  L.setEnabled(true);
  for (unsigned I = 0; I != 10; ++I)
    LogEvent(LogLevel::Info, "test", "e").field("i", I);
  std::vector<std::string> Lines = L.snapshot();
  L.setEnabled(false);
  L.setCapacityPerThread(4096);
  ASSERT_EQ(Lines.size(), 4u);
  EXPECT_EQ(L.droppedEvents(), 6u);
  // The survivors are the newest four, still in order.
  EXPECT_NE(Lines[0].find("\"i\":6"), std::string::npos);
  EXPECT_NE(Lines[3].find("\"i\":9"), std::string::npos);
}

TEST(EventLog, JournalEndMetaLineCarriesTotals) {
  EventLogger &L = EventLogger::global();
  L.reset();
  L.setEnabled(true);
  LogEvent(LogLevel::Info, "test", "only");
  std::string Doc = L.toJsonLines();
  L.setEnabled(false);
  EXPECT_NE(Doc.find("\"event\":\"journal-end\""), std::string::npos);
  EXPECT_NE(Doc.find("\"events\":1"), std::string::npos);
  EXPECT_NE(Doc.find("\"dropped\":0"), std::string::npos);
}
