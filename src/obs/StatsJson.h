//===- obs/StatsJson.h - Machine-readable statistics report -----*- C++ -*-===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `--stats-json <file>` report: everything `--time-passes` and
/// `--print-stats` print for humans, serialized with a versioned schema so
/// trend tooling (tools/bench_report.py, CI artifact diffing) never
/// scrapes console text. One document per run:
///
/// \code{.json}
///   {
///     "schema": "depflow-stats",
///     "schema_version": 2,
///     "tool": "depflow-opt",
///     "pipeline": "separate,constprop,pre",
///     "functions": 60, "jobs": 8,
///     "passes":   [{"pass": "constprop", "seconds": ..,
///                   "analysis_hits": .., "analysis_misses": ..,
///                   "alloc_bytes": ..}, ...],
///     "analyses": [{"analysis": "dfg", "hits": .., "misses": ..}, ...],
///     "function_tasks": [{"function": "f0", "ok": true, "cause": "",
///                   "fail_pass": "", "restored": false, "seconds": ..,
///                   "alloc_bytes": ..}, ...],
///     "counters":  {"version": 1, "entries": [{"group", "name",
///                   "description", "kind", "value", (histograms also:
///                   "count", "max", "buckets")}, ...]},
///     "sched":    {"runs": [{"name": "module-pipeline", "jobs", "levels",
///                  "tasks", "max_ready", "failed_tasks", "wall_us",
///                  "work_us", "critical_path_us", "achievable_speedup",
///                  "measured_speedup", "workers": [{"worker", "busy_us",
///                  "tasks", "utilization"}, ...]}, ...]},   (opt-in)
///     "process":  {"peak_rss_bytes": .., "allocated_bytes": ..,
///                  "allocations": ..}
///   }
/// \endcode
///
/// The `counters` section is the one export of the support/Statistic.h
/// registry (all three kinds, with histogram buckets). The same entries
/// are also emitted as a standalone `depflow-counters` document by
/// `depflow-opt --counters-json` (renderCountersJson below).
///
/// `schema_version` bumps on any field removal or meaning change; adding
/// fields is backward compatible and does not bump it. Version 2 removed
/// version 1's flat `statistics` array, which repeated each counter
/// entry's scalar value. The structs below
/// are obs-local mirrors of the pass-layer types (the pass library depends
/// on obs, not the other way around).
///
//===----------------------------------------------------------------------===//

#ifndef DEPFLOW_OBS_STATSJSON_H
#define DEPFLOW_OBS_STATSJSON_H

#include "support/Error.h"
#include "support/Statistic.h"

#include <cstdint>
#include <string>
#include <vector>

namespace depflow {
namespace obs {

/// Bumped on breaking schema changes; mirrored in the "schema_version"
/// field of every emitted document.
inline constexpr unsigned StatsSchemaVersion = 2;

/// Version of the counter-entry layout, shared by the `counters` section
/// inside depflow-stats documents and the standalone `depflow-counters`
/// documents (`--counters-json`). Bumps on breaking changes only.
inline constexpr unsigned CountersSchemaVersion = 1;

struct StatsPassRecord {
  std::string Pass;
  double Seconds = 0;
  std::uint64_t AnalysisHits = 0;
  std::uint64_t AnalysisMisses = 0;
  std::uint64_t AllocBytes = 0;
};

struct StatsAnalysisCounter {
  std::string Analysis;
  std::uint64_t Hits = 0;
  std::uint64_t Misses = 0;
};

/// One function task's budget/outcome row (`function_tasks` array). Added
/// without a schema_version bump — purely additive.
struct StatsFunctionRecord {
  std::string Function;
  bool Ok = true;
  std::string Cause;    // taskFailureKindName; "" when Ok.
  std::string FailPass; // Pass in flight at failure; "" when Ok.
  bool Restored = false;
  double Seconds = 0;
  std::uint64_t AllocBytes = 0;
};

struct StatsReport {
  std::string Tool;     // "depflow-opt"
  std::string Pipeline; // Textual pipeline ("separate,constprop,pre").
  unsigned Functions = 0;
  unsigned Jobs = 0;
  std::vector<StatsPassRecord> Passes;
  std::vector<StatsAnalysisCounter> Analyses;
  /// Per-function task rows, input order (resource budgets + degradation
  /// outcomes). Empty when the producing tool has no per-task data.
  std::vector<StatsFunctionRecord> FunctionTasks;
  /// Emit the `sched` section from the obs/Sched.h recorder snapshot (one
  /// entry per recorded parallel run, with the derived critical-path /
  /// utilization / speedup numbers). Additive — no schema_version bump.
  bool IncludeSched = false;
};

/// Renders \p R, plus the current support/Statistic.h snapshot as the
/// `counters` section and the process metrics, as the schema document
/// above.
std::string renderStatsJson(const StatsReport &R);

/// Serializes renderStatsJson(R) to \p Path.
Status writeStatsJson(const std::string &Path, const StatsReport &R);

/// Renders the current statistics snapshot as a standalone
/// `depflow-counters` document (the `--counters-json` payload):
/// `{"schema": "depflow-counters", "schema_version": 1, "tool",
/// "pipeline", "counters": [entry, ...]}` with the same entry layout as
/// the depflow-stats `counters` section.
std::string renderCountersJson(const std::string &Tool,
                               const std::string &Pipeline);

/// Serializes renderCountersJson(Tool, Pipeline) to \p Path.
Status writeCountersJson(const std::string &Path, const std::string &Tool,
                         const std::string &Pipeline);

} // namespace obs
} // namespace depflow

#endif // DEPFLOW_OBS_STATSJSON_H
