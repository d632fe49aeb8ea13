//===- obs/ThreadTrack.cpp - One observability track per thread -----------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "obs/ThreadTrack.h"

using namespace depflow;
using namespace depflow::obs;

namespace {

std::atomic<ThreadTrack *> First{nullptr};
std::mutex RegisterLock; // Guards Last and NextTid.
ThreadTrack *Last = nullptr;
std::uint32_t NextTid = 1; // Tid 0 is the journal's own meta line.

thread_local constinit ThreadTrack *Local = nullptr;

} // namespace

ThreadTrack &obs::currentTrack() {
  if (ThreadTrack *T = Local)
    return *T;
  auto *T = new ThreadTrack;
  {
    std::lock_guard<std::mutex> G(RegisterLock);
    T->Tid = NextTid++;
    // Release: a walker that sees the pointer sees the track's Tid.
    (Last ? Last->Next : First).store(T, std::memory_order_release);
    Last = T;
  }
  Local = T;
  return *T;
}

ThreadTrack *obs::firstTrack() {
  return First.load(std::memory_order_acquire);
}
