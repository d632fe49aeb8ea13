//===- obs/EventLog.cpp - Structured JSON-Lines event journal -------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "obs/EventLog.h"

#include "obs/Json.h"
#include "obs/ThreadTrack.h"
#include "obs/Trace.h"

#include <algorithm>
#include <cstdio>
#include <unistd.h>

using namespace depflow;
using namespace depflow::obs;

const char *depflow::obs::logLevelName(LogLevel L) {
  switch (L) {
  case LogLevel::Debug:
    return "debug";
  case LogLevel::Info:
    return "info";
  case LogLevel::Warn:
    return "warn";
  case LogLevel::Error:
    return "error";
  }
  return "info";
}

EventLogger &EventLogger::global() {
  static EventLogger L; // Meyers singleton: safe across static-init order.
  return L;
}

void EventLogger::record(double TsUs, std::string Line) {
  ThreadTrack &T = currentTrack();
  std::lock_guard<std::mutex> G(T.Lock);
  if (T.Ring.size() < CapacityPerThread) {
    // Growth phase: the ring has never wrapped, append in place.
    T.Ring.push_back({TsUs, std::move(Line)});
    return;
  }
  // Full: overwrite the oldest entry and advance the head (drop-oldest).
  T.Ring[T.Head] = {TsUs, std::move(Line)};
  T.Head = (T.Head + 1) % T.Ring.size();
  Dropped.fetch_add(1, std::memory_order_relaxed);
}

std::vector<std::string> EventLogger::snapshot() const {
  std::vector<JournalLine> All;
  forEachTrack([&](ThreadTrack &T) {
    std::lock_guard<std::mutex> G(T.Lock);
    for (std::size_t I = 0; I != T.Ring.size(); ++I)
      All.push_back(T.Ring[(T.Head + I) % T.Ring.size()]);
  });
  std::stable_sort(All.begin(), All.end(),
                   [](const JournalLine &A, const JournalLine &B) {
                     return A.TsUs < B.TsUs;
                   });
  std::vector<std::string> Out;
  Out.reserve(All.size());
  for (JournalLine &L : All)
    Out.push_back(std::move(L.Line));
  return Out;
}

std::string EventLogger::toJsonLines() const {
  std::vector<std::string> Lines = snapshot();
  std::string Out;
  for (const std::string &L : Lines) {
    Out += L;
    Out += '\n';
  }
  // Trailing meta line: totals, so consumers can tell a truncated journal
  // from a complete one. Hand-assembled so ts_us carries the same %.3f
  // formatting as every event line.
  char Meta[160];
  std::snprintf(Meta, sizeof(Meta),
                "{\"ts_us\":%.3f,\"tid\":0,\"level\":\"info\",\"cat\":\"log\","
                "\"event\":\"journal-end\",\"events\":%llu,\"dropped\":%llu}",
                TraceRecorder::global().nowUs(),
                (unsigned long long)Lines.size(),
                (unsigned long long)droppedEvents());
  Out += Meta;
  Out += '\n';
  return Out;
}

Status EventLogger::writeJsonLines(const std::string &Path) const {
  return writeArtifact(Path, toJsonLines(), "event-log");
}

void EventLogger::crashWriteTail(int Fd, std::size_t MaxPerThread) const {
  // Async-signal path: no locks, no allocation, raw write(2) of bytes that
  // were serialized at commit time. A concurrently-running writer can tear
  // a line; the process is dying, so a mostly-correct tail wins.
  auto WriteStr = [Fd](const char *S, std::size_t N) {
    while (N) {
      ssize_t W = ::write(Fd, S, N);
      if (W <= 0)
        return;
      S += W;
      N -= std::size_t(W);
    }
  };
  auto WriteLit = [&WriteStr](const char *S) {
    std::size_t N = 0;
    while (S[N])
      ++N;
    WriteStr(S, N);
  };
  WriteLit("=== depflow event journal tail ===\n");
  // Walk the tracks without their locks: the list only grows at its tail,
  // and a crash racing a brand-new thread's registration is an acceptable
  // loss on this path.
  forEachTrack([&](const ThreadTrack &T) {
    std::size_t RingSize = T.Ring.size();
    std::size_t N = RingSize < MaxPerThread ? RingSize : MaxPerThread;
    for (std::size_t I = RingSize - N; I != RingSize; ++I) {
      const JournalLine &L = T.Ring[(T.Head + I) % RingSize];
      WriteStr(L.Line.data(), L.Line.size());
      WriteLit("\n");
    }
  });
  WriteLit("=== end event journal tail ===\n");
}

void EventLogger::reset() {
  forEachTrack([](ThreadTrack &T) {
    std::lock_guard<std::mutex> G(T.Lock);
    T.Ring.clear();
    T.Head = 0;
  });
  Dropped.store(0, std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// LogEvent
//===----------------------------------------------------------------------===//

LogEvent::LogEvent(LogLevel Level, std::string_view Category,
                   std::string_view Event)
    : Armed(EventLogger::global().enabled()) {
  if (!Armed)
    return;
  TsUs = TraceRecorder::global().nowUs();
  // The object stays open across field() calls and the destructor closes
  // it, so the line is built member-by-member with hand-placed commas.
  Line += "{\"ts_us\":";
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.3f", TsUs);
  Line += Buf;
  Line += ",\"tid\":";
  Line += std::to_string(currentTrack().Tid);
  Line += ",\"level\":\"";
  Line += logLevelName(Level);
  Line += "\",\"cat\":\"";
  Line += jsonEscape(Category);
  Line += "\",\"event\":\"";
  Line += jsonEscape(Event);
  Line += '"';
}

void LogEvent::appendKey(std::string_view Key) {
  Line += ",\"";
  Line += jsonEscape(Key);
  Line += "\":";
}

LogEvent &LogEvent::field(std::string_view Key, std::string_view Value) {
  if (!Armed)
    return *this;
  appendKey(Key);
  Line += '"';
  Line += jsonEscape(Value);
  Line += '"';
  return *this;
}

LogEvent &LogEvent::field(std::string_view Key, std::uint64_t Value) {
  if (!Armed)
    return *this;
  appendKey(Key);
  Line += std::to_string(Value);
  return *this;
}

LogEvent &LogEvent::field(std::string_view Key, std::int64_t Value) {
  if (!Armed)
    return *this;
  appendKey(Key);
  Line += std::to_string(Value);
  return *this;
}

LogEvent &LogEvent::field(std::string_view Key, double Value) {
  if (!Armed)
    return *this;
  appendKey(Key);
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.3f", Value);
  Line += Buf;
  return *this;
}

LogEvent &LogEvent::field(std::string_view Key, bool Value) {
  if (!Armed)
    return *this;
  appendKey(Key);
  Line += Value ? "true" : "false";
  return *this;
}

LogEvent::~LogEvent() {
  if (!Armed)
    return;
  Line += '}';
  EventLogger::global().record(TsUs, std::move(Line));
}
