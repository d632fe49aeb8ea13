//===- obs/Metrics.cpp - Process and allocation metrics -------------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"

#include "support/FaultInjection.h"

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <new>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace {

/// Per-thread counters. Single-writer: only the owning thread stores;
/// other threads only load. Records are malloc'd (never operator new — the
/// hook below would recurse) and chained into one process-wide list. When
/// a thread exits, its counts fold into the retired totals and its record
/// goes back to the pool for the next thread, so the list is as long as
/// the most threads ever alive at once, not the number ever started.
struct ThreadCounters {
  std::atomic<std::uint64_t> Bytes{0};
  std::atomic<std::uint64_t> Count{0};
  ThreadCounters *Next = nullptr;
  bool InUse = false;
};

/// Guards the record list, the InUse flags and the retired totals.
/// Allocations never take it; only a thread's first allocation, its exit,
/// and the process-wide readings do.
std::mutex CountersLock;
ThreadCounters *CountersHead = nullptr;
std::uint64_t RetiredBytes = 0;
std::uint64_t RetiredCount = 0;

thread_local constinit ThreadCounters *LocalCounters = nullptr;

/// Retires this thread's record at thread exit.
struct CountersRetire {
  ~CountersRetire() {
    ThreadCounters *C = LocalCounters;
    if (!C)
      return;
    std::lock_guard<std::mutex> G(CountersLock);
    RetiredBytes += C->Bytes.load(std::memory_order_relaxed);
    RetiredCount += C->Count.load(std::memory_order_relaxed);
    C->Bytes.store(0, std::memory_order_relaxed);
    C->Count.store(0, std::memory_order_relaxed);
    C->InUse = false;
    LocalCounters = nullptr;
  }
};

ThreadCounters &acquireCounters() {
  static thread_local CountersRetire Retire; // Constructed once per thread.
  (void)Retire;
  std::lock_guard<std::mutex> G(CountersLock);
  ThreadCounters *C = CountersHead;
  while (C && C->InUse)
    C = C->Next;
  if (!C) {
    void *Mem = std::malloc(sizeof(ThreadCounters));
    if (!Mem)
      std::abort(); // No record to count this thread's allocations in.
    C = new (Mem) ThreadCounters();
    C->Next = CountersHead;
    CountersHead = C;
  }
  C->InUse = true;
  LocalCounters = C;
  return *C;
}

ThreadCounters &localCounters() {
  ThreadCounters *C = LocalCounters;
  return C ? *C : acquireCounters();
}

/// Count + allocate. Single-writer counters: a load/store pair is cheaper
/// than an atomic RMW and race-free because only this thread stores.
/// faultShouldFailAlloc is the task-budget / alloc-fail check site: it
/// refuses the allocation *before* it is counted, so the counters keep
/// describing memory actually requested and granted.
void *countedAlloc(std::size_t Size) noexcept {
  ThreadCounters &C = localCounters();
  std::uint64_t Bytes = C.Bytes.load(std::memory_order_relaxed);
  if (depflow::faultShouldFailAlloc(Bytes, Size))
    return nullptr;
  C.Bytes.store(Bytes + Size, std::memory_order_relaxed);
  C.Count.store(C.Count.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
  return std::malloc(Size ? Size : 1);
}

void *alignedCountedAlloc(std::size_t Size, std::align_val_t Align) noexcept {
  ThreadCounters &C = localCounters();
  std::uint64_t Bytes = C.Bytes.load(std::memory_order_relaxed);
  if (depflow::faultShouldFailAlloc(Bytes, Size))
    return nullptr;
  C.Bytes.store(Bytes + Size, std::memory_order_relaxed);
  C.Count.store(C.Count.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
  std::size_t A = static_cast<std::size_t>(Align);
  if (A < sizeof(void *))
    A = sizeof(void *);
  void *P = nullptr;
  if (posix_memalign(&P, A, Size ? Size : 1) != 0)
    return nullptr;
  return P;
}

} // namespace

// The replaceable allocation functions. Every form — scalar/array,
// throwing/nothrow, plain/aligned — is replaced, not just the two the
// library defaults delegate to: under a sanitizer the runtime interposes
// its own versions of the forms we leave out, and a new that lands in the
// sanitizer's allocator paired with a delete that lands in ours (or vice
// versa) is reported as an alloc-dealloc mismatch. With the full set
// replaced, every allocation is malloc/posix_memalign and every
// deallocation is free — consistent with or without a sanitizer.

void *operator new(std::size_t Size) {
  if (void *P = countedAlloc(Size))
    return P;
  throw std::bad_alloc();
}

void *operator new(std::size_t Size, std::align_val_t Align) {
  if (void *P = alignedCountedAlloc(Size, Align))
    return P;
  throw std::bad_alloc();
}

void *operator new(std::size_t Size, const std::nothrow_t &) noexcept {
  return countedAlloc(Size);
}

void *operator new(std::size_t Size, std::align_val_t Align,
                   const std::nothrow_t &) noexcept {
  return alignedCountedAlloc(Size, Align);
}

void *operator new[](std::size_t Size) {
  if (void *P = countedAlloc(Size))
    return P;
  throw std::bad_alloc();
}

void *operator new[](std::size_t Size, std::align_val_t Align) {
  if (void *P = alignedCountedAlloc(Size, Align))
    return P;
  throw std::bad_alloc();
}

void *operator new[](std::size_t Size, const std::nothrow_t &) noexcept {
  return countedAlloc(Size);
}

void *operator new[](std::size_t Size, std::align_val_t Align,
                     const std::nothrow_t &) noexcept {
  return alignedCountedAlloc(Size, Align);
}

void operator delete(void *P) noexcept { std::free(P); }

void operator delete(void *P, std::size_t) noexcept { std::free(P); }

void operator delete(void *P, std::align_val_t) noexcept { std::free(P); }

void operator delete(void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}

void operator delete(void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}

void operator delete(void *P, std::align_val_t,
                     const std::nothrow_t &) noexcept {
  std::free(P);
}

void operator delete[](void *P) noexcept { std::free(P); }

void operator delete[](void *P, std::size_t) noexcept { std::free(P); }

void operator delete[](void *P, std::align_val_t) noexcept { std::free(P); }

void operator delete[](void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}

void operator delete[](void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}

void operator delete[](void *P, std::align_val_t,
                       const std::nothrow_t &) noexcept {
  std::free(P);
}

namespace depflow {
namespace obs {

std::uint64_t threadAllocatedBytes() {
  return localCounters().Bytes.load(std::memory_order_relaxed);
}

std::uint64_t threadAllocationCount() {
  return localCounters().Count.load(std::memory_order_relaxed);
}

std::uint64_t processAllocatedBytes() {
  std::lock_guard<std::mutex> G(CountersLock);
  std::uint64_t Sum = RetiredBytes;
  for (ThreadCounters *C = CountersHead; C; C = C->Next)
    Sum += C->Bytes.load(std::memory_order_relaxed);
  return Sum;
}

std::uint64_t processAllocationCount() {
  std::lock_guard<std::mutex> G(CountersLock);
  std::uint64_t Sum = RetiredCount;
  for (ThreadCounters *C = CountersHead; C; C = C->Next)
    Sum += C->Count.load(std::memory_order_relaxed);
  return Sum;
}

std::size_t allocationRecordCount() {
  std::lock_guard<std::mutex> G(CountersLock);
  std::size_t N = 0;
  for (ThreadCounters *C = CountersHead; C; C = C->Next)
    ++N;
  return N;
}

std::uint64_t peakRSSBytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage RU;
  if (getrusage(RUSAGE_SELF, &RU) != 0)
    return 0;
#if defined(__APPLE__)
  return std::uint64_t(RU.ru_maxrss); // Bytes on macOS.
#else
  return std::uint64_t(RU.ru_maxrss) * 1024; // Kilobytes on Linux.
#endif
#else
  return 0;
#endif
}

} // namespace obs
} // namespace depflow
