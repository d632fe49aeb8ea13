//===- obs/Metrics.h - Process and allocation metrics -----------*- C++ -*-===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Memory-side observability. Two sources:
///
///   * **Allocation counters.** Metrics.cpp replaces the global allocating
///     `operator new` family with a malloc-based implementation that bumps
///     two per-thread counters (bytes requested, allocation count) before
///     delegating. The counters are fields of the thread's statistic shard
///     (support/Statistic.h), so they share its lifecycle: reuse after a
///     thread exits, the retired-total fold, and a registry that outlives
///     `main`. Because the module driver pins each function task to one
///     thread, the difference of `threadAllocatedBytes()` across a pass run
///     is that pass's allocation footprint — the per-pass `alloc_bytes`
///     column of `--time-passes` / `--stats-json`. The counters are
///     cumulative (never decremented on free): they measure allocator
///     traffic, not live heap. Cost: one single-writer add per allocation;
///     the hook is active in every binary that links `dep_obs`.
///
///   * **Process metrics.** `peakRSSBytes()` reads the OS's high-water
///     resident set size (getrusage), reported in the `--stats-json`
///     "process" block.
///
//===----------------------------------------------------------------------===//

#ifndef DEPFLOW_OBS_METRICS_H
#define DEPFLOW_OBS_METRICS_H

#include <cstddef>
#include <cstdint>

namespace depflow {
namespace obs {

/// Cumulative bytes this thread has requested through `operator new` since
/// thread start. Monotonic; frees do not subtract.
std::uint64_t threadAllocatedBytes();

/// Cumulative number of `operator new` calls on this thread.
std::uint64_t threadAllocationCount();

/// Process-wide totals over all threads that ever allocated: the retired
/// total of exited threads plus one shard per live thread, so the cost
/// of a reading follows the threads alive now, not the threads ever
/// started. Exact when no other thread is allocating (drivers read this
/// after workers join).
std::uint64_t processAllocatedBytes();
std::uint64_t processAllocationCount();

/// Number of per-thread statistic shards, which carry the counters.
/// Exited threads' shards are reused, so this is the most threads ever
/// alive at once.
std::size_t allocationRecordCount();

/// The process's peak resident set size in bytes, or 0 when unavailable.
std::uint64_t peakRSSBytes();

/// Scoped allocation-delta probe: records this thread's cumulative
/// allocation counters at construction, and reports the traffic since
/// then. Because the counters are per-thread and deterministic for a
/// fixed workload, `bytes()`/`count()` taken around a kernel invocation
/// are exact, machine-independent measurements — the `ctr_alloc_*`
/// metrics the bench counter sweeps feed into the perf gate.
class AllocDelta {
  std::uint64_t Bytes0;
  std::uint64_t Count0;

public:
  AllocDelta()
      : Bytes0(threadAllocatedBytes()), Count0(threadAllocationCount()) {}

  std::uint64_t bytes() const { return threadAllocatedBytes() - Bytes0; }
  std::uint64_t count() const { return threadAllocationCount() - Count0; }
};

} // namespace obs
} // namespace depflow

#endif // DEPFLOW_OBS_METRICS_H
