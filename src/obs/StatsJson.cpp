//===- obs/StatsJson.cpp - Machine-readable statistics report -------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "obs/StatsJson.h"

#include "obs/Json.h"
#include "obs/Metrics.h"
#include "obs/Sched.h"

#include <cstdio>

using namespace depflow;
using namespace depflow::obs;

/// One counter entry in the shared layout of the depflow-stats `counters`
/// section and the standalone depflow-counters document.
static void emitCounterEntry(JsonWriter &W, const StatisticSnapshot &Row) {
  W.beginObject();
  W.keyValue("group", Row.Group);
  W.keyValue("name", Row.Name);
  W.keyValue("description", Row.Desc);
  switch (Row.Kind) {
  case StatKind::Counter:
    W.keyValue("kind", "counter");
    break;
  case StatKind::Max:
    W.keyValue("kind", "max");
    break;
  case StatKind::Histogram:
    W.keyValue("kind", "histogram");
    break;
  }
  W.keyValue("value", Row.Value);
  if (Row.Kind == StatKind::Histogram) {
    W.keyValue("count", Row.Count);
    W.keyValue("max", Row.Max);
    W.key("buckets");
    W.beginArray();
    for (std::uint64_t B : Row.Buckets)
      W.value(B);
    W.endArray();
  }
  W.endObject();
}

static void emitCounterEntries(JsonWriter &W) {
  W.beginArray();
  for (const StatisticSnapshot &Row : statisticsSnapshot())
    emitCounterEntry(W, Row);
  W.endArray();
}

std::string depflow::obs::renderStatsJson(const StatsReport &R) {
  std::string S;
  JsonWriter W(S);
  W.beginObject();
  W.keyValue("schema", "depflow-stats");
  W.keyValue("schema_version", StatsSchemaVersion);
  W.keyValue("tool", R.Tool);
  W.keyValue("pipeline", R.Pipeline);
  W.keyValue("functions", R.Functions);
  W.keyValue("jobs", R.Jobs);

  W.key("passes");
  W.beginArray();
  for (const StatsPassRecord &P : R.Passes) {
    W.beginObject();
    W.keyValue("pass", P.Pass);
    W.keyValue("seconds", P.Seconds);
    W.keyValue("analysis_hits", P.AnalysisHits);
    W.keyValue("analysis_misses", P.AnalysisMisses);
    W.keyValue("alloc_bytes", P.AllocBytes);
    W.endObject();
  }
  W.endArray();

  W.key("analyses");
  W.beginArray();
  for (const StatsAnalysisCounter &C : R.Analyses) {
    W.beginObject();
    W.keyValue("analysis", C.Analysis);
    W.keyValue("hits", C.Hits);
    W.keyValue("misses", C.Misses);
    W.endObject();
  }
  W.endArray();

  W.key("function_tasks");
  W.beginArray();
  for (const StatsFunctionRecord &T : R.FunctionTasks) {
    W.beginObject();
    W.keyValue("function", T.Function);
    W.keyValue("ok", T.Ok);
    W.keyValue("cause", T.Cause);
    W.keyValue("fail_pass", T.FailPass);
    W.keyValue("restored", T.Restored);
    W.keyValue("seconds", T.Seconds);
    W.keyValue("alloc_bytes", T.AllocBytes);
    W.endObject();
  }
  W.endArray();

  W.key("counters");
  W.beginObject();
  W.keyValue("version", CountersSchemaVersion);
  W.key("entries");
  emitCounterEntries(W);
  W.endObject();

  if (R.IncludeSched) {
    W.key("sched");
    W.beginObject();
    W.key("runs");
    W.beginArray();
    for (const SchedRun &Run : SchedRecorder::global().snapshot()) {
      SchedRunReport Rep = analyzeSchedRun(Run);
      W.beginObject();
      W.keyValue("name", Run.Name);
      W.keyValue("jobs", Run.Jobs);
      W.keyValue("levels", Run.NumLevels);
      W.keyValue("tasks", std::uint64_t(Run.Tasks.size()));
      W.keyValue("max_ready", Run.MaxReady);
      W.keyValue("failed_tasks", Rep.FailedTasks);
      W.keyValue("wall_us", Rep.WallUs);
      W.keyValue("work_us", Rep.WorkUs);
      W.keyValue("critical_path_us", Rep.CriticalPathUs);
      W.keyValue("achievable_speedup", Rep.AchievableSpeedup);
      W.keyValue("measured_speedup", Rep.MeasuredSpeedup);
      W.key("workers");
      W.beginArray();
      for (std::size_t WI = 0; WI != Rep.Workers.size(); ++WI) {
        W.beginObject();
        W.keyValue("worker", std::uint64_t(WI));
        W.keyValue("busy_us", Rep.Workers[WI].BusyUs);
        W.keyValue("tasks", Rep.Workers[WI].Tasks);
        W.keyValue("utilization", Rep.WallUs > 0
                                      ? Rep.Workers[WI].BusyUs / Rep.WallUs
                                      : 0.0);
        W.endObject();
      }
      W.endArray();
      W.endObject();
    }
    W.endArray();
    W.endObject();
  }

  W.key("process");
  W.beginObject();
  W.keyValue("peak_rss_bytes", peakRSSBytes());
  W.keyValue("allocated_bytes", processAllocatedBytes());
  W.keyValue("allocations", processAllocationCount());
  W.endObject();

  W.endObject();
  S += '\n';
  return S;
}

Status depflow::obs::writeStatsJson(const std::string &Path,
                                    const StatsReport &R) {
  std::string S = renderStatsJson(R);
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return Status::error("cannot open stats output file '" + Path + "'");
  std::size_t Written = std::fwrite(S.data(), 1, S.size(), F);
  bool CloseOk = std::fclose(F) == 0;
  if (Written != S.size() || !CloseOk)
    return Status::error("failed writing stats output file '" + Path + "'");
  return Status::success();
}

std::string depflow::obs::renderCountersJson(const std::string &Tool,
                                             const std::string &Pipeline) {
  std::string S;
  JsonWriter W(S);
  W.beginObject();
  W.keyValue("schema", "depflow-counters");
  W.keyValue("schema_version", CountersSchemaVersion);
  W.keyValue("tool", Tool);
  W.keyValue("pipeline", Pipeline);
  W.key("counters");
  emitCounterEntries(W);
  W.endObject();
  S += '\n';
  return S;
}

Status depflow::obs::writeCountersJson(const std::string &Path,
                                       const std::string &Tool,
                                       const std::string &Pipeline) {
  std::string S = renderCountersJson(Tool, Pipeline);
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return Status::error("cannot open counters output file '" + Path + "'");
  std::size_t Written = std::fwrite(S.data(), 1, S.size(), F);
  bool CloseOk = std::fclose(F) == 0;
  if (Written != S.size() || !CloseOk)
    return Status::error("failed writing counters output file '" + Path +
                         "'");
  return Status::success();
}
