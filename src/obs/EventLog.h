//===- obs/EventLog.h - Structured JSON-Lines event journal -----*- C++ -*-===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-safe, leveled, structured event journal. Where Trace.h records
/// *spans* for a timeline viewer, this records *events* for machines: each
/// commit becomes one JSON object on its own line (JSON-Lines), so the
/// journal a run leaves behind is grep-able, stream-parseable, and — the
/// point of the exercise — survives a crash, because every line is fully
/// serialized at commit time and the crash handler only has to write(2)
/// the stored bytes.
///
/// Design constraints, in order:
///
///   * **Near-zero cost when off.** Like `TraceSpan`, a disabled
///     `LogEvent` is one relaxed atomic load and a branch.
///   * **No cross-thread contention when on.** Each thread journals to the
///     ring in its own track (ThreadTrack.h), the record its trace spans go
///     to, so a line's `tid` is the tid of the thread's trace track.
///   * **Bounded memory.** Each thread's ring holds at most
///     `CapacityPerThread` events; overflow drops the *oldest* event and
///     bumps a process-wide drop counter that the flushed journal reports,
///     so truncation is visible, never silent.
///   * **Crash-safe tail.** `crashWriteTail` walks the tracks with no
///     locks and no allocation and write(2)s the most recent lines per
///     thread — best effort by design (the process is dying; a torn line
///     beats no journal). `CrashHandler` calls it from the signal handler.
///
/// Events carry a severity (`LogLevel`), a category, an event name, and
/// arbitrary key/value fields; every level is kept. The scheduler
/// telemetry correlates them with its runs/tasks via `run`/`task` fields.
/// Timestamps share the trace recorder's epoch so journal lines and
/// Chrome-trace spans line up.
///
//===----------------------------------------------------------------------===//

#ifndef DEPFLOW_OBS_EVENTLOG_H
#define DEPFLOW_OBS_EVENTLOG_H

#include "support/Error.h"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace depflow {
namespace obs {

/// Event severity, written into each line's `level` field.
enum class LogLevel : std::uint8_t { Debug = 0, Info = 1, Warn = 2, Error = 3 };

/// "debug", "info", "warn", "error".
const char *logLevelName(LogLevel L);

/// The process-wide journal. One instance (`global()`); drivers enable it
/// when `--log-json` is given and flush with `writeJsonLines`.
class EventLogger {
  std::atomic<bool> Enabled{false};
  std::atomic<std::uint64_t> Dropped{0};

  EventLogger() = default;

public:
  /// Events each thread's ring keeps; older ones are dropped.
  static constexpr std::size_t CapacityPerThread = 4096;

  EventLogger(const EventLogger &) = delete;
  EventLogger &operator=(const EventLogger &) = delete;

  /// The process-wide journal every LogEvent commits to.
  static EventLogger &global();

  void setEnabled(bool On) { Enabled.store(On, std::memory_order_relaxed); }
  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }

  /// Ring-overflow drops since construction/reset.
  std::uint64_t droppedEvents() const {
    return Dropped.load(std::memory_order_relaxed);
  }

  /// Commits one pre-serialized line to the calling thread's ring.
  void record(double TsUs, std::string Line);

  /// Every retained line, merged across threads, sorted by timestamp.
  std::vector<std::string> snapshot() const;

  /// The journal as JSON-Lines: every retained event line in timestamp
  /// order, then one `journal-end` meta line carrying the retained-event
  /// and dropped-event totals.
  std::string toJsonLines() const;

  /// Serializes toJsonLines() to \p Path.
  Status writeJsonLines(const std::string &Path) const;

  /// Best-effort crash dump: write(2)s the newest \p MaxPerThread lines of
  /// each thread's ring to \p Fd, bracketed by marker lines. Takes no
  /// locks and allocates nothing — async-signal-safe modulo the documented
  /// torn-read race with still-running writers.
  void crashWriteTail(int Fd, std::size_t MaxPerThread = 16) const;

  /// Drops every retained event and zeroes the drop counter. Tracks
  /// survive; tests use this to isolate scenarios.
  void reset();
};

/// Builder for one journal event. Inert when the logger is disabled;
/// otherwise the constructor opens `{"ts_us":…,"tid":…,"level":…,"cat":…,
/// "event":…`, each `field` appends one member, and the destructor closes
/// the object and commits the line.
class LogEvent {
  bool Armed;
  double TsUs = 0;
  std::string Line;

  void appendKey(std::string_view Key);

public:
  LogEvent(LogLevel Level, std::string_view Category, std::string_view Event);

  LogEvent(const LogEvent &) = delete;
  LogEvent &operator=(const LogEvent &) = delete;

  LogEvent &field(std::string_view Key, std::string_view Value);
  LogEvent &field(std::string_view Key, const char *Value) {
    return field(Key, std::string_view(Value));
  }
  LogEvent &field(std::string_view Key, std::uint64_t Value);
  LogEvent &field(std::string_view Key, std::int64_t Value);
  LogEvent &field(std::string_view Key, unsigned Value) {
    return field(Key, std::uint64_t(Value));
  }
  LogEvent &field(std::string_view Key, int Value) {
    return field(Key, std::int64_t(Value));
  }
  LogEvent &field(std::string_view Key, double Value);
  LogEvent &field(std::string_view Key, bool Value);

  ~LogEvent();
};

} // namespace obs
} // namespace depflow

#endif // DEPFLOW_OBS_EVENTLOG_H
