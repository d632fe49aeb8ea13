//===- obs/Metrics.cpp - Process and allocation metrics -------------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"

#include "support/FaultInjection.h"
#include "support/Statistic.h"

#include <cstdlib>
#include <new>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace {

/// Counts an allocation of \p Size bytes in this thread's statistic shard,
/// or refuses it. Single-writer counters: a load/store pair is cheaper than
/// an atomic RMW and race-free because only this thread stores.
/// faultShouldFailAlloc is the task-budget / alloc-fail check site: it
/// refuses the allocation *before* it is counted, so the counters keep
/// describing memory actually requested and granted.
bool countAlloc(std::size_t Size) noexcept {
  depflow::detail::StatShard &S = depflow::detail::localShard();
  std::uint64_t Bytes = S.AllocBytes.load(std::memory_order_relaxed);
  if (depflow::faultShouldFailAlloc(Bytes, Size))
    return false;
  S.AllocBytes.store(Bytes + Size, std::memory_order_relaxed);
  depflow::detail::bump(S.AllocCount, 1);
  return true;
}

void *countedAlloc(std::size_t Size) noexcept {
  return countAlloc(Size) ? std::malloc(Size ? Size : 1) : nullptr;
}

void *alignedCountedAlloc(std::size_t Size, std::align_val_t Align) noexcept {
  if (!countAlloc(Size))
    return nullptr;
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
  return detail::localShard().AllocBytes.load(std::memory_order_relaxed);
}

std::uint64_t threadAllocationCount() {
  return detail::localShard().AllocCount.load(std::memory_order_relaxed);
}

std::uint64_t processAllocatedBytes() { return detail::allocationTotals().Bytes; }

std::uint64_t processAllocationCount() {
  return detail::allocationTotals().Count;
}

std::size_t allocationRecordCount() { return detail::shardCount(); }

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
