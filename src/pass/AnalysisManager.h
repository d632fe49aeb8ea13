//===- pass/AnalysisManager.h - Cached function analyses --------*- C++ -*-===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A lazy, cached analysis layer in the style of LLVM's new-pass-manager
/// `AnalysisManager<Function>`. The paper's structures — cycle equivalence,
/// the PST, the factored CDG, the DFG — are cheap to build (O(E), O(EV))
/// and meant to be built *once* and shared by every analysis and pass, not
/// reconstructed per pass invocation. The manager owns one result per
/// registered analysis, computes it on first demand, and serves later
/// queries from cache.
///
/// Invalidation is epoch-based: the manager carries a *function
/// modification epoch*, and every cached result remembers the epoch it was
/// computed at. When a pass mutates the function, the pipeline calls
/// `invalidate(PreservedAnalyses)`: the epoch advances, results the pass
/// preserved are re-stamped to the new epoch, everything else is dropped
/// and will be recomputed on next demand. A result whose stamp disagrees
/// with the current epoch is never served.
///
/// An analysis type `A` provides:
/// \code
///   using Result = ...;                       // movable result type
///   static const char *name();                // stable display name
///   static Result run(Function &, FunctionAnalysisManager &);
/// \endcode
/// `run` may itself call `getResult<B>()` to depend on other analyses
/// (dependencies are computed first and shared; cycles trip an assert).
///
/// The manager also keeps per-analysis hit/miss counters, surfaced by
/// depflow-opt's `--time-passes` report and the pass-manager tests.
///
//===----------------------------------------------------------------------===//

#ifndef DEPFLOW_PASS_ANALYSISMANAGER_H
#define DEPFLOW_PASS_ANALYSISMANAGER_H

#include "ir/Function.h"
#include "obs/Trace.h"
#include "support/FaultInjection.h"
#include "support/Statistic.h"

#include <cassert>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

namespace depflow {

class FunctionAnalysisManager;

/// Opaque identity of an analysis type: the address of a per-type static.
using AnalysisKey = const void *;

namespace detail {
/// Assigns each analysis type a unique AnalysisKey. Function-local statics
/// in inline functions collapse to one entity across translation units, so
/// the key is process-wide stable.
template <typename A> AnalysisKey analysisKey() {
  static char Key;
  return &Key;
}
} // namespace detail

/// The set of analyses a pass left intact, reported after each pass run and
/// consumed by FunctionAnalysisManager::invalidate.
class PreservedAnalyses {
  bool All = false;
  std::set<AnalysisKey> Preserved;

public:
  /// Nothing survives (the conservative default for a mutating pass).
  static PreservedAnalyses none() { return PreservedAnalyses(); }

  /// Everything survives (the pass did not modify the function).
  static PreservedAnalyses all() {
    PreservedAnalyses PA;
    PA.All = true;
    return PA;
  }

  template <typename A> PreservedAnalyses &preserve() {
    Preserved.insert(detail::analysisKey<A>());
    return *this;
  }

  bool preservesAll() const { return All; }
  bool preserves(AnalysisKey K) const {
    return All || Preserved.count(K) != 0;
  }
  template <typename A> bool preserves() const {
    return preserves(detail::analysisKey<A>());
  }
};

/// Lazily computed, epoch-stamped analysis cache for one function.
class FunctionAnalysisManager {
  struct AnyResult {
    virtual ~AnyResult() = default;
  };
  template <typename T> struct Holder : AnyResult {
    T Value;
    explicit Holder(T &&V) : Value(std::move(V)) {}
  };

  struct Entry {
    std::unique_ptr<AnyResult> Result;
    std::uint64_t Epoch = 0;   // Epoch the result was computed/re-stamped at.
    const char *Name = "";     // Analysis display name.
    bool InFlight = false;     // Cycle detection during nested run().
    std::uint64_t Hits = 0;
    std::uint64_t Misses = 0;
  };

  Function &F;
  std::uint64_t CurrentEpoch = 1;
  std::uint64_t VerifiedEpoch = 0; // 0: nothing verified yet.
  bool CachingDisabled = false;
  // Results displaced by a recomputation of the same analysis. With
  // caching disabled every query recomputes, so a result can be displaced
  // while a reference to it is still live — in an outer analysis' run()
  // (the DFG's nested PST query recomputes CFG edges) or in a pass body
  // holding several getResult references across each other. Parking the
  // old holder here keeps those references valid until the next pass
  // boundary (invalidate), after which no caller may hold one.
  std::vector<std::unique_ptr<AnyResult>> Retired;
  // std::map: node-stable, and iteration order (pointer keys) only feeds
  // aggregate counters, never output ordering — counterSnapshot re-sorts
  // by name.
  std::map<AnalysisKey, Entry> Entries;

  Entry &entry(AnalysisKey K, const char *Name) {
    Entry &E = Entries[K];
    E.Name = Name;
    return E;
  }

public:
  explicit FunctionAnalysisManager(Function &F) : F(F) {}

  FunctionAnalysisManager(const FunctionAnalysisManager &) = delete;
  FunctionAnalysisManager &operator=(const FunctionAnalysisManager &) = delete;

  Function &function() { return F; }
  const Function &function() const { return F; }

  /// The current function modification epoch. Starts at 1; advances on
  /// every invalidation that does not preserve everything.
  std::uint64_t epoch() const { return CurrentEpoch; }

  /// True if the function verified at the current epoch. runPass verifies
  /// each IR state once and records it with markVerified.
  bool verified() const { return VerifiedEpoch == CurrentEpoch; }
  void markVerified() { VerifiedEpoch = CurrentEpoch; }

  /// Returns A's result, computing (and caching) it on a miss.
  template <typename A> typename A::Result &getResult() {
    AnalysisKey K = detail::analysisKey<A>();
    {
      Entry &E = entry(K, A::name());
      assert(!E.InFlight && "cyclic analysis dependency");
      if (!CachingDisabled && E.Result && E.Epoch == CurrentEpoch) {
        ++E.Hits;
        obs::traceInstant("analysis-hit", A::name());
        return static_cast<Holder<typename A::Result> *>(E.Result.get())
            ->Value;
      }
      ++E.Misses;
      E.InFlight = true;
      if (E.Result)
        Retired.push_back(std::move(E.Result));
    }
    // The analysis boundary is the robustness layer's cooperative check
    // site: an armed `analysis-fail:<name>` fires here, and a blown
    // per-pass deadline is detected here before more work starts. Both
    // throw; the module pipeline catches at the function-task boundary.
    faultAnalysisCheckpoint(A::name());
    // Run outside the Entry reference: nested getResult calls may insert
    // into the map (node-stable, but keep the access pattern simple).
    // The span covers only the compute path, so in a trace the cost of an
    // analysis is visibly attributed to the pass that first demanded it;
    // cache hits show up as instant markers.
    std::unique_ptr<Holder<typename A::Result>> Fresh;
    {
      obs::TraceSpan Span("analysis", A::name());
      Fresh = std::make_unique<Holder<typename A::Result>>(A::run(F, *this));
    }
    Entry &E = entry(K, A::name());
    E.InFlight = false;
    E.Result = std::move(Fresh);
    E.Epoch = CurrentEpoch;
    return static_cast<Holder<typename A::Result> *>(E.Result.get())->Value;
  }

  /// Returns A's cached result if present and current, else null. Does not
  /// compute and does not count as a hit or a miss.
  template <typename A> typename A::Result *getCachedResult() {
    auto It = Entries.find(detail::analysisKey<A>());
    if (It == Entries.end() || !It->second.Result ||
        It->second.Epoch != CurrentEpoch)
      return nullptr;
    return &static_cast<Holder<typename A::Result> *>(
                It->second.Result.get())
                ->Value;
  }

  /// The function was mutated; only results in \p PA survive. Advances the
  /// epoch (unless everything is preserved), re-stamps survivors, frees the
  /// rest.
  void invalidate(const PreservedAnalyses &PA) {
    // A pass boundary: no caller holds analysis references across it, so
    // displaced results parked by recomputations can finally die.
    Retired.clear();
    if (PA.preservesAll())
      return;
    ++CurrentEpoch;
    for (auto &[K, E] : Entries) {
      if (!E.Result)
        continue;
      if (PA.preserves(K))
        E.Epoch = CurrentEpoch; // Survives into the new epoch.
      else
        E.Result.reset();
    }
  }

  /// When disabled, every getResult recomputes (and counts as a miss) —
  /// the behaviour of the pre-manager drivers, kept as a measurement
  /// baseline (bench_pipeline) and a caching-bug bisection aid.
  void setCachingDisabled(bool Disabled) { CachingDisabled = Disabled; }
  bool cachingDisabled() const { return CachingDisabled; }

  /// Per-analysis cache statistics, plus totals, for instrumentation.
  struct Counter {
    std::string Name;
    std::uint64_t Hits = 0;
    std::uint64_t Misses = 0;
  };
  std::vector<Counter> counterSnapshot() const;
  std::uint64_t totalHits() const;
  std::uint64_t totalMisses() const;
};

} // namespace depflow

#endif // DEPFLOW_PASS_ANALYSISMANAGER_H
