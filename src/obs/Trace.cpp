//===- obs/Trace.cpp - Low-overhead trace-event recorder ------------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "obs/Trace.h"

#include "obs/Json.h"

#include <algorithm>

using namespace depflow;
using namespace depflow::obs;

TraceRecorder &TraceRecorder::global() {
  static TraceRecorder R; // Meyers singleton: safe across static-init order.
  return R;
}

void TraceRecorder::setCurrentThreadName(std::string Name) {
  ThreadTrack &T = currentTrack();
  std::lock_guard<std::mutex> G(T.Lock);
  T.Name = std::move(Name);
}

void TraceRecorder::record(TraceEvent E) {
  ThreadTrack &T = currentTrack();
  E.Tid = T.Tid;
  std::lock_guard<std::mutex> G(T.Lock);
  T.Events.push_back(std::move(E));
}

std::vector<TraceEvent> TraceRecorder::snapshot() const {
  std::vector<TraceEvent> Out;
  forEachTrack([&](ThreadTrack &T) {
    std::lock_guard<std::mutex> G(T.Lock);
    Out.insert(Out.end(), T.Events.begin(), T.Events.end());
  });
  // Ties broken longer-span-first so a parent sorts before the children it
  // encloses (they share a start time when the child begins immediately).
  std::stable_sort(Out.begin(), Out.end(),
                   [](const TraceEvent &A, const TraceEvent &B) {
                     if (A.TsUs != B.TsUs)
                       return A.TsUs < B.TsUs;
                     return A.DurUs > B.DurUs;
                   });
  return Out;
}

std::string TraceRecorder::toChromeJson() const {
  std::vector<std::pair<std::uint32_t, std::string>> TrackNames;
  forEachTrack([&](ThreadTrack &T) {
    std::lock_guard<std::mutex> G(T.Lock);
    if (!T.Name.empty())
      TrackNames.emplace_back(T.Tid, T.Name);
  });

  std::string S;
  JsonWriter W(S);
  W.beginObject();
  W.keyValue("displayTimeUnit", "ms");
  W.key("traceEvents");
  W.beginArray();
  for (const auto &[Tid, Name] : TrackNames) {
    W.beginObject();
    W.keyValue("ph", "M");
    W.keyValue("name", "thread_name");
    W.keyValue("pid", 1u);
    W.keyValue("tid", Tid);
    W.key("args");
    W.beginObject();
    W.keyValue("name", Name);
    W.endObject();
    W.endObject();
  }
  for (const TraceEvent &E : snapshot()) {
    W.beginObject();
    W.keyValue("ph", E.DurUs < 0 ? "i" : "X");
    W.keyValue("name", E.Name);
    W.keyValue("cat", E.Category);
    W.keyValue("pid", 1u);
    W.keyValue("tid", E.Tid);
    W.keyValue("ts", E.TsUs);
    if (E.DurUs < 0)
      W.keyValue("s", "t"); // Instant scope: thread.
    else
      W.keyValue("dur", E.DurUs);
    if (!E.Args.empty()) {
      W.key("args");
      W.beginObject();
      for (const auto &[K, V] : E.Args)
        W.keyValue(K, V);
      W.endObject();
    }
    W.endObject();
  }
  W.endArray();
  W.endObject();
  return S;
}

Status TraceRecorder::writeChromeJson(const std::string &Path) const {
  return writeArtifact(Path, toChromeJson(), "trace");
}

void TraceRecorder::reset() {
  forEachTrack([](ThreadTrack &T) {
    std::lock_guard<std::mutex> G(T.Lock);
    T.Events.clear();
  });
}

void depflow::obs::traceInstant(const char *Category, const char *Name) {
  TraceRecorder &R = TraceRecorder::global();
  if (!R.enabled())
    return;
  TraceEvent E;
  E.Name = Name;
  E.Category = Category;
  E.TsUs = R.nowUs();
  E.DurUs = -1;
  R.record(std::move(E));
}
