//===- support/Statistic.cpp - Global statistics counters -----------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "support/Statistic.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <new>

using namespace depflow;

/// The registry lock guards the registration lists, the slot counter, the
/// shard list and the retired totals. Bumps never take it: they store into
/// the calling thread's shard. Readings and the exit fold do, so a thread
/// that retires is counted exactly once, in its shard or in `Retired`.
struct detail::StatRegistry {
  std::mutex Lock;
  std::vector<Statistic *> Stats;
  std::vector<MaxStatistic *> Maxes;
  std::vector<HistStatistic *> Hists;
  unsigned NumSlots = 1; // Slot 0 means "not registered".
  StatShard *Shards = nullptr;
  std::uint64_t Retired[MaxStatSlots] = {};

  unsigned allocateSlots(unsigned N, const char *Name) {
    if (NumSlots + N > MaxStatSlots) {
      std::fprintf(stderr,
                   "fatal: statistic '%s' does not fit in %u shard slots\n",
                   Name, MaxStatSlots);
      std::abort();
    }
    unsigned First = NumSlots;
    NumSlots += N;
    return First;
  }

  /// Retired total plus every shard's value; caller holds Lock.
  std::uint64_t total(unsigned Slot) const {
    std::uint64_t Sum = Retired[Slot];
    for (const StatShard *S = Shards; S; S = S->Next)
      Sum += S->Slots[Slot].load(std::memory_order_relaxed);
    return Sum;
  }
  std::uint64_t total(const Statistic &S) const {
    unsigned Slot = S.Slot.load(std::memory_order_relaxed);
    return Slot ? total(Slot) : 0;
  }
  /// Histogram slot \p Offset: 0 count, 1 sum, 2 + i bucket i.
  std::uint64_t total(const HistStatistic &H, unsigned Offset) const {
    unsigned Slot = H.Slot.load(std::memory_order_relaxed);
    return Slot ? total(Slot + Offset) : 0;
  }
};

namespace {

using Registry = detail::StatRegistry;

Registry &registry() {
  static Registry R; // Meyers singleton: safe across static-init order.
  return R;
}

/// Folds this thread's shard into the retired total when the thread
/// exits and returns the zeroed shard to the free pool.
struct ShardFold {
  ~ShardFold() {
    detail::StatShard *S = detail::LocalShard;
    if (!S)
      return;
    Registry &R = registry();
    std::lock_guard<std::mutex> G(R.Lock);
    for (unsigned I = 1; I != R.NumSlots; ++I) {
      R.Retired[I] += S->Slots[I].load(std::memory_order_relaxed);
      S->Slots[I].store(0, std::memory_order_relaxed);
    }
    S->InUse = false;
    detail::LocalShard = nullptr;
  }
};

} // namespace

thread_local constinit detail::StatShard *detail::LocalShard = nullptr;

detail::StatShard &detail::acquireShard() {
  static thread_local ShardFold Fold; // Constructed once per thread.
  (void)Fold;
  Registry &R = registry();
  std::lock_guard<std::mutex> G(R.Lock);
  StatShard *S = R.Shards;
  while (S && S->InUse)
    S = S->Next;
  if (!S) {
    // malloc, not operator new: a shard must not show up in the calling
    // thread's allocation counters, which are gated per pass.
    void *Mem = std::malloc(sizeof(StatShard));
    if (!Mem) {
      std::fprintf(stderr, "fatal: out of memory for a statistic shard\n");
      std::abort();
    }
    S = new (Mem) StatShard();
    S->Next = R.Shards;
    R.Shards = S;
  }
  S->InUse = true;
  LocalShard = S;
  return *S;
}

unsigned Statistic::registerOnce() {
  Registry &R = registry();
  std::lock_guard<std::mutex> G(R.Lock);
  unsigned S = Slot.load(std::memory_order_relaxed);
  if (!S) {
    S = R.allocateSlots(1, Name);
    R.Stats.push_back(this);
    Slot.store(S, std::memory_order_release);
  }
  return S;
}

std::uint64_t Statistic::value() const {
  Registry &R = registry();
  std::lock_guard<std::mutex> G(R.Lock);
  return R.total(*this);
}

void MaxStatistic::registerOnce() {
  if (Registered.load(std::memory_order_acquire))
    return;
  Registry &R = registry();
  std::lock_guard<std::mutex> G(R.Lock);
  if (!Registered.load(std::memory_order_relaxed)) {
    R.Maxes.push_back(this);
    Registered.store(true, std::memory_order_release);
  }
}

unsigned HistStatistic::registerOnce() {
  Registry &R = registry();
  std::lock_guard<std::mutex> G(R.Lock);
  unsigned S = Slot.load(std::memory_order_relaxed);
  if (!S) {
    S = R.allocateSlots(NumSlots, Name);
    R.Hists.push_back(this);
    Slot.store(S, std::memory_order_release);
  }
  return S;
}

std::uint64_t HistStatistic::slotValue(unsigned Offset) const {
  Registry &R = registry();
  std::lock_guard<std::mutex> G(R.Lock);
  return R.total(*this, Offset);
}

std::vector<StatisticSnapshot> depflow::statisticsSnapshot() {
  Registry &R = registry();
  std::vector<StatisticSnapshot> Rows;
  {
    std::lock_guard<std::mutex> G(R.Lock);
    Rows.reserve(R.Stats.size() + R.Maxes.size() + R.Hists.size());
    for (const Statistic *S : R.Stats)
      Rows.push_back({S->group(), S->name(), S->desc(), R.total(*S)});
    for (const MaxStatistic *S : R.Maxes) {
      StatisticSnapshot Row{S->group(), S->name(), S->desc(), S->value()};
      Row.Kind = StatKind::Max;
      Rows.push_back(std::move(Row));
    }
    for (const HistStatistic *S : R.Hists) {
      StatisticSnapshot Row{S->group(), S->name(), S->desc(), R.total(*S, 1)};
      Row.Kind = StatKind::Histogram;
      Row.Count = R.total(*S, 0);
      Row.Max = S->max();
      Row.Buckets.resize(HistStatistic::NumBuckets);
      for (unsigned I = 0; I != HistStatistic::NumBuckets; ++I)
        Row.Buckets[I] = R.total(*S, 2 + I);
      Rows.push_back(std::move(Row));
    }
  }
  std::sort(Rows.begin(), Rows.end(),
            [](const StatisticSnapshot &A, const StatisticSnapshot &B) {
              return A.Group != B.Group ? A.Group < B.Group : A.Name < B.Name;
            });
  return Rows;
}

std::uint64_t depflow::statisticValue(const char *Group, const char *Name) {
  Registry &R = registry();
  std::lock_guard<std::mutex> G(R.Lock);
  auto Matches = [&](const auto *S) {
    return !std::strcmp(S->group(), Group) && !std::strcmp(S->name(), Name);
  };
  for (const Statistic *S : R.Stats)
    if (Matches(S))
      return R.total(*S);
  for (const MaxStatistic *S : R.Maxes)
    if (Matches(S))
      return S->value();
  for (const HistStatistic *S : R.Hists)
    if (Matches(S))
      return R.total(*S, 1);
  return 0;
}

void depflow::printStatistics(std::FILE *Out) {
  std::vector<StatisticSnapshot> Rows = statisticsSnapshot();
  std::fprintf(Out, "===-------------------------------------------===\n");
  std::fprintf(Out, "            ... Statistics Collected ...\n");
  std::fprintf(Out, "===-------------------------------------------===\n");
  for (const StatisticSnapshot &Row : Rows) {
    std::fprintf(Out, "%8llu %-12s - %s", (unsigned long long)Row.Value,
                 Row.Group.c_str(), Row.Desc.c_str());
    if (Row.Kind == StatKind::Max)
      std::fprintf(Out, " (max)");
    else if (Row.Kind == StatKind::Histogram)
      std::fprintf(Out, " (n=%llu, max=%llu)", (unsigned long long)Row.Count,
                   (unsigned long long)Row.Max);
    std::fputc('\n', Out);
  }
}

void depflow::resetStatistics() {
  Registry &R = registry();
  std::lock_guard<std::mutex> G(R.Lock);
  for (unsigned I = 1; I != R.NumSlots; ++I) {
    R.Retired[I] = 0;
    for (detail::StatShard *S = R.Shards; S; S = S->Next)
      S->Slots[I].store(0, std::memory_order_relaxed);
  }
  for (MaxStatistic *S : R.Maxes)
    S->Value.store(0, std::memory_order_relaxed);
  for (HistStatistic *S : R.Hists)
    S->Max.store(0, std::memory_order_relaxed);
}
