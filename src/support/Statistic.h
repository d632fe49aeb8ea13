//===- support/Statistic.h - Global statistics counters ---------*- C++ -*-===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Named global counters in the LLVM `STATISTIC` style. A `Statistic`
/// registers itself with a process-wide registry on first use; drivers
/// print the accumulated counts with `printStatistics` (depflow-opt's
/// `--print-stats`). Counters are cheap enough to leave enabled
/// unconditionally — a bump is one relaxed load and store into the calling
/// thread's own shard, with no shared cache line.
///
/// Three kinds exist:
///
///   * `Statistic` — a monotonically accumulating counter (the default).
///   * `MaxStatistic` — a high-water gauge (e.g. the deepest PST, the
///     longest bracket list ever seen).
///   * `HistStatistic` — a log2-bucketed histogram of per-event sample
///     values (e.g. tokens sent per DFG edge) that also tracks count,
///     sum, and max.
///
/// Thread-safety contract (audited for `ModulePipeline -j N`):
///
///   * **Shards.** Registration gives each counter one slot index and each
///     histogram a run of slots (count, sum, buckets). Every thread owns a
///     shard, an array indexed by slot; only the owner stores into it, so a
///     bump is a single-writer relaxed load and store, never an RMW. The
///     shard also carries the thread's allocation counters, which
///     obs/Metrics.cpp's `operator new` bumps the same way: the shards are
///     the process's one per-thread counter registry.
///   * **Fold.** A reading — `value()`, `statisticsSnapshot()`,
///     `statisticValue()`, `allocationTotals()` — adds a retired total to
///     every live shard, under the registry lock. When a thread exits, its
///     shard folds into the retired total and is kept for reuse by the next
///     thread. The registry is never destroyed, so allocations after `main`
///     returns and during thread exit still count.
///   * **Maxima** (`MaxStatistic`, a histogram's max) stay one process-wide
///     atomic with a compare-exchange loop: it writes only when the maximum
///     rises.
///
/// Sums and maxima commute, and the per-function work each pass performs is
/// independent of worker scheduling, so totals are byte-identical for any
/// `-j N`. A reading is exact once the writers have joined (or otherwise
/// stopped); taken while a thread still bumps, it may miss that thread's
/// in-flight increments. `resetStatistics()` has the same rule: call it
/// with no writer running.
///
/// Usage:
/// \code
///   DEPFLOW_STATISTIC(NumFoldedOps, "constprop", "Operands folded to
///                     constants");
///   DEPFLOW_MAX_STATISTIC(MaxListLen, "cycle-equiv", "Longest bracket
///                     list");
///   DEPFLOW_HIST_STATISTIC(HistTokens, "constprop", "Tokens per edge");
///   ...
///   NumFoldedOps += Folded;
///   MaxListLen.update(L.size());
///   HistTokens.sample(TokensOnThisEdge);
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef DEPFLOW_SUPPORT_STATISTIC_H
#define DEPFLOW_SUPPORT_STATISTIC_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace depflow {
namespace detail {

/// Slots per shard. Slot 0 is reserved as "not registered yet"; a
/// registration past the last slot is a fatal error.
inline constexpr unsigned MaxStatSlots = 2048;

/// One thread's statistic slots and allocation counters. Only the owning
/// thread stores into them; readers load them under the registry lock.
struct StatShard {
  std::atomic<std::uint64_t> Slots[MaxStatSlots] = {};
  /// The thread's `operator new` traffic (obs/Metrics.cpp). Fields, not
  /// slots: `resetStatistics()` leaves them alone.
  std::atomic<std::uint64_t> AllocBytes{0};
  std::atomic<std::uint64_t> AllocCount{0};
  StatShard *Next = nullptr; // Every shard ever made (registry-owned).
  bool InUse = false;        // Owned by a live thread.
};

/// The calling thread's shard, or null before its first bump.
extern thread_local constinit StatShard *LocalShard;

/// Slow path of `localShard`: takes a free shard (or makes one) for this
/// thread and arranges the fold into the retired total at thread exit.
StatShard &acquireShard();

inline StatShard &localShard() {
  StatShard *S = LocalShard;
  return S ? *S : acquireShard();
}

/// Single-writer add: the owning thread is the only one that stores.
inline void bump(std::atomic<std::uint64_t> &Slot, std::uint64_t N) {
  Slot.store(Slot.load(std::memory_order_relaxed) + N,
             std::memory_order_relaxed);
}

/// The process-wide registry (Statistic.cpp); reads each statistic's slot.
struct StatRegistry;

/// Allocation counters summed over every thread that ever allocated: the
/// retired total of exited threads plus every live shard.
struct AllocTotals {
  std::uint64_t Bytes = 0;
  std::uint64_t Count = 0;
};
AllocTotals allocationTotals();

/// Number of shards ever made. Exited threads' shards are reused, so this
/// is the most threads ever alive at once.
std::size_t shardCount();

} // namespace detail

/// Which flavor of statistic a snapshot row came from.
enum class StatKind : std::uint8_t { Counter, Max, Histogram };

class Statistic {
  const char *Group;
  const char *Name;
  const char *Desc;
  std::atomic<unsigned> Slot{0}; // 0 until registered.

  unsigned slot() {
    unsigned S = Slot.load(std::memory_order_acquire);
    return S ? S : registerOnce();
  }
  unsigned registerOnce();
  friend struct detail::StatRegistry;

public:
  constexpr Statistic(const char *Group, const char *Name, const char *Desc)
      : Group(Group), Name(Name), Desc(Desc) {}

  Statistic(const Statistic &) = delete;
  Statistic &operator=(const Statistic &) = delete;

  const char *group() const { return Group; }
  const char *name() const { return Name; }
  const char *desc() const { return Desc; }
  std::uint64_t value() const;

  Statistic &operator++() {
    return *this += 1;
  }
  Statistic &operator+=(std::uint64_t N) {
    unsigned S = slot();
    detail::bump(detail::localShard().Slots[S], N);
    return *this;
  }
};

/// A high-water gauge: `update(N)` raises the recorded value to N if N is
/// larger. Max commutes, so parallel updates stay deterministic.
class MaxStatistic {
  const char *Group;
  const char *Name;
  const char *Desc;
  std::atomic<std::uint64_t> Value{0};
  std::atomic<bool> Registered{false};

  void registerOnce();
  friend void resetStatistics();

public:
  constexpr MaxStatistic(const char *Group, const char *Name, const char *Desc)
      : Group(Group), Name(Name), Desc(Desc) {}

  MaxStatistic(const MaxStatistic &) = delete;
  MaxStatistic &operator=(const MaxStatistic &) = delete;

  const char *group() const { return Group; }
  const char *name() const { return Name; }
  const char *desc() const { return Desc; }
  std::uint64_t value() const { return Value.load(std::memory_order_relaxed); }

  void update(std::uint64_t N) {
    registerOnce();
    std::uint64_t Cur = Value.load(std::memory_order_relaxed);
    while (Cur < N && !Value.compare_exchange_weak(Cur, N,
                                                   std::memory_order_relaxed))
      ;
  }
};

/// A log2-bucketed histogram of sample values. Bucket 0 holds samples of
/// 0, bucket i>=1 holds samples in [2^(i-1), 2^i); the last bucket is an
/// overflow bucket. Count, sum, and max ride along, so the report can
/// show both the distribution and its moments.
class HistStatistic {
public:
  static constexpr unsigned NumBuckets = 16;
  /// Shard slots per histogram: count, sum, then the buckets.
  static constexpr unsigned NumSlots = 2 + NumBuckets;

private:
  const char *Group;
  const char *Name;
  const char *Desc;
  std::atomic<unsigned> Slot{0}; // First of NumSlots; 0 until registered.
  std::atomic<std::uint64_t> Max{0};

  unsigned slot() {
    unsigned S = Slot.load(std::memory_order_acquire);
    return S ? S : registerOnce();
  }
  unsigned registerOnce();
  std::uint64_t slotValue(unsigned Offset) const;
  friend struct detail::StatRegistry;
  friend void resetStatistics();

public:
  constexpr HistStatistic(const char *Group, const char *Name,
                          const char *Desc)
      : Group(Group), Name(Name), Desc(Desc) {}

  HistStatistic(const HistStatistic &) = delete;
  HistStatistic &operator=(const HistStatistic &) = delete;

  const char *group() const { return Group; }
  const char *name() const { return Name; }
  const char *desc() const { return Desc; }
  std::uint64_t count() const { return slotValue(0); }
  std::uint64_t sum() const { return slotValue(1); }
  std::uint64_t max() const { return Max.load(std::memory_order_relaxed); }
  std::uint64_t bucket(unsigned I) const { return slotValue(2 + I); }

  /// Maps a sample value to its bucket index.
  static unsigned bucketIndex(std::uint64_t V) {
    unsigned I = 0;
    while (V) {
      ++I;
      V >>= 1;
    }
    return I < NumBuckets ? I : NumBuckets - 1;
  }

  void sample(std::uint64_t V) {
    unsigned S = slot();
    std::atomic<std::uint64_t> *Slots = detail::localShard().Slots + S;
    detail::bump(Slots[0], 1);
    detail::bump(Slots[1], V);
    detail::bump(Slots[2 + bucketIndex(V)], 1);
    std::uint64_t Cur = Max.load(std::memory_order_relaxed);
    while (Cur < V &&
           !Max.compare_exchange_weak(Cur, V, std::memory_order_relaxed))
      ;
  }
};

/// One row of the statistics report. `Value` is the count for counters,
/// the high-water mark for max gauges, and the sample sum for histograms
/// (so a plain "total work" reading works uniformly); histograms
/// additionally fill Count/Max/Buckets.
struct StatisticSnapshot {
  std::string Group;
  std::string Name;
  std::string Desc;
  std::uint64_t Value = 0;
  StatKind Kind = StatKind::Counter;
  std::uint64_t Count = 0;
  std::uint64_t Max = 0;
  std::vector<std::uint64_t> Buckets;
};

/// Every registered counter with a non-zero value (touched counters with a
/// zero value are included so resets stay visible), sorted by group then
/// name.
std::vector<StatisticSnapshot> statisticsSnapshot();

/// Looks up one registered statistic by group and name; returns its
/// snapshot `Value` (0 when never touched). The lookup helper the tests
/// and the bench counter sweeps are built on.
std::uint64_t statisticValue(const char *Group, const char *Name);

/// Renders the report in the classic `--print-stats` table form.
void printStatistics(std::FILE *Out);

/// Zeroes every registered counter, live shards and retired totals alike
/// (tests and long-lived drivers); the allocation counters stay. Call it
/// with no writer running.
void resetStatistics();

} // namespace depflow

/// Defines a file-local statistics counter.
#define DEPFLOW_STATISTIC(Var, Group, Desc)                                   \
  static ::depflow::Statistic Var(Group, #Var, Desc)

/// Defines a file-local high-water gauge.
#define DEPFLOW_MAX_STATISTIC(Var, Group, Desc)                               \
  static ::depflow::MaxStatistic Var(Group, #Var, Desc)

/// Defines a file-local log2 histogram.
#define DEPFLOW_HIST_STATISTIC(Var, Group, Desc)                              \
  static ::depflow::HistStatistic Var(Group, #Var, Desc)

#endif // DEPFLOW_SUPPORT_STATISTIC_H
