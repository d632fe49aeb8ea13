//===- obs/ThreadTrack.h - One observability track per thread ---*- C++ -*-===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-thread record that the trace recorder (Trace.h) and the event
/// journal (EventLog.h) share. A thread registers one `ThreadTrack` the
/// first time it records a span, journals an event or names itself: one
/// tid, one track name, its span events and its journal ring. So every
/// journal line a thread writes carries the tid of its trace track.
///
/// Tracks are never freed. They outlive their thread, because the module
/// driver's workers exit before the flush, and the list of tracks only
/// grows at its tail. So `forEachTrack` takes no lock and allocates
/// nothing: the crash handler walks it from a signal handler.
///
//===----------------------------------------------------------------------===//

#ifndef DEPFLOW_OBS_THREADTRACK_H
#define DEPFLOW_OBS_THREADTRACK_H

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace depflow {
namespace obs {

/// One committed trace event. Durations are in microseconds; `DurUs < 0`
/// marks an instant event.
struct TraceEvent {
  std::string Name;
  const char *Category = "";
  double TsUs = 0;   // Start, microseconds since the recorder's epoch.
  double DurUs = -1; // Span duration; negative = instant event.
  std::uint32_t Tid = 0;
  /// Optional key/value annotations, serialized into the event's "args".
  std::vector<std::pair<std::string, std::string>> Args;
};

/// One journal line, serialized at commit.
struct JournalLine {
  double TsUs = 0;  // Trace-recorder epoch, microseconds.
  std::string Line; // The complete JSON object (no newline).
};

struct ThreadTrack {
  /// Guards Name, Events, Ring and Head. One writer (the owning thread);
  /// readers lock after the workers join. The crash path skips it.
  std::mutex Lock;
  std::string Name; // Track name ("worker-3"); empty = unnamed.
  std::vector<TraceEvent> Events;
  std::vector<JournalLine> Ring; // Bounded; Head marks the oldest line.
  std::size_t Head = 0;

  std::uint32_t Tid = 0; // Fixed at registration.
  std::atomic<ThreadTrack *> Next{nullptr}; // Set by the next registration.
};

/// The calling thread's track, registered on first use.
ThreadTrack &currentTrack();

/// The first track registered, or null; `Next` leads to the others.
ThreadTrack *firstTrack();

/// Calls \p Visit on every track in registration order.
template <typename Fn> void forEachTrack(Fn Visit) {
  for (ThreadTrack *T = firstTrack(); T;
       T = T->Next.load(std::memory_order_acquire))
    Visit(*T);
}

} // namespace obs
} // namespace depflow

#endif // DEPFLOW_OBS_THREADTRACK_H
