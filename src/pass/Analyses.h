//===- pass/Analyses.h - Function analyses and their manager ---*- C++ -*-===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The closed list of function analyses, the `PreservedAnalyses` bitmask
/// over it, and the `FunctionAnalysisManager` that caches one result per
/// analysis. The paper's structures — cycle equivalence, the PST, the
/// factored CDG, the DFG — are cheap to build (O(E), O(EV)) and meant to
/// be built *once* and shared by every analysis and pass, not rebuilt per
/// pass invocation. Each analysis is a thin wrapper that names an existing
/// construction and wires its dependencies through the manager, so shared
/// prerequisites are computed once:
///
///   CFGEdgesAnalysis     dense CFG edge numbering (everything edge-based
///                        hangs off it)
///   DominatorAnalysis    dominator tree of the block-level CFG
///   CycleEquivAnalysis   O(E) cycle equivalence of the augmented CFG
///   PSTAnalysis          program structure tree over the classes
///   FactoredCDGAnalysis  factored control dependence graph
///   DFGAnalysis          the dependence flow graph (phi-free IR only)
///   RangeAnalysis        integer ranges per use (sparse engine client)
///   TaintAnalysis        source/sink taint per use (sparse engine client)
///   NullUseAnalysis      may-uninit uses (sparse engine client)
///
/// Dependency edges: CycleEquiv → CFGEdges; PST → CFGEdges, CycleEquiv;
/// FactoredCDG → CFGEdges, CycleEquiv; DFG → CFGEdges, PST; the three
/// sparse-engine clients → DFG. Querying the DFG therefore computes the
/// whole structure stack once and shares it.
///
/// An analysis type `A` provides:
/// \code
///   using Result = ...;                       // movable result type
///   static constexpr const char *name();      // stable display name
///   static constexpr bool ShapeOnly = ...;    // depends on the CFG only
///   static Result run(Function &, FunctionAnalysisManager &);
/// \endcode
/// `run` may itself call `getResult<B>()` to depend on other analyses
/// (dependencies are computed first and shared; cycles trip an assert).
/// `ShapeOnly` results read blocks and successor lists only, so they
/// survive a pass that edits instructions but keeps the CFG shape; the DFG
/// and the clients hold Instruction pointers and do not.
///
/// `AllAnalyses` lists every analysis once. An analysis's position in it
/// is its bit in `PreservedAnalyses` and its slot in the manager.
///
//===----------------------------------------------------------------------===//

#ifndef DEPFLOW_PASS_ANALYSES_H
#define DEPFLOW_PASS_ANALYSES_H

#include "cdg/ControlDependence.h"
#include "core/DepFlowGraph.h"
#include "dataflow/NullUseAnalysis.h"
#include "dataflow/RangeAnalysis.h"
#include "dataflow/TaintAnalysis.h"
#include "graph/Dominators.h"
#include "ir/CFGEdges.h"
#include "ir/Function.h"
#include "obs/Trace.h"
#include "structure/CycleEquivalence.h"
#include "structure/SESE.h"
#include "support/FaultInjection.h"

#include <cassert>
#include <cstdint>
#include <optional>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

namespace depflow {

class FunctionAnalysisManager;

struct CFGEdgesAnalysis {
  using Result = CFGEdges;
  static constexpr const char *name() { return "cfg-edges"; }
  static constexpr bool ShapeOnly = true;
  static Result run(Function &F, FunctionAnalysisManager &AM);
};

struct DominatorAnalysis {
  using Result = DomTree;
  static constexpr const char *name() { return "domtree"; }
  static constexpr bool ShapeOnly = true;
  static Result run(Function &F, FunctionAnalysisManager &AM);
};

struct CycleEquivAnalysis {
  using Result = CycleEquivalence;
  static constexpr const char *name() { return "cycle-equiv"; }
  static constexpr bool ShapeOnly = true;
  static Result run(Function &F, FunctionAnalysisManager &AM);
};

struct PSTAnalysis {
  using Result = ProgramStructureTree;
  static constexpr const char *name() { return "pst"; }
  static constexpr bool ShapeOnly = true;
  static Result run(Function &F, FunctionAnalysisManager &AM);
};

struct FactoredCDGAnalysis {
  using Result = FactoredCDG;
  static constexpr const char *name() { return "factored-cdg"; }
  static constexpr bool ShapeOnly = true;
  static Result run(Function &F, FunctionAnalysisManager &AM);
};

struct DFGAnalysis {
  using Result = DepFlowGraph;
  static constexpr const char *name() { return "dfg"; }
  static constexpr bool ShapeOnly = false;
  static Result run(Function &F, FunctionAnalysisManager &AM);
};

struct RangeAnalysis {
  using Result = RangeResult;
  static constexpr const char *name() { return "range"; }
  static constexpr bool ShapeOnly = false;
  static Result run(Function &F, FunctionAnalysisManager &AM);
};

struct TaintAnalysis {
  using Result = TaintResult;
  static constexpr const char *name() { return "taint"; }
  static constexpr bool ShapeOnly = false;
  static Result run(Function &F, FunctionAnalysisManager &AM);
};

struct NullUseAnalysis {
  using Result = NullUseResult;
  static constexpr const char *name() { return "nulluse"; }
  static constexpr bool ShapeOnly = false;
  static Result run(Function &F, FunctionAnalysisManager &AM);
};

/// A closed list of analyses: their count, each one's index and name, the
/// mask of the shape-only ones, and a tuple with one `T<A>` per analysis.
template <typename... As> struct AnalysisList {
  static constexpr unsigned Size = sizeof...(As);

  template <typename A> static constexpr unsigned indexOf() {
    unsigned I = 0;
    (void)((std::is_same_v<A, As> ? false : (++I, true)) && ...);
    static_assert((std::is_same_v<A, As> || ...), "analysis not listed");
    return I;
  }

  static constexpr std::uint32_t shapeOnlyMask() {
    std::uint32_t Mask = 0;
    ((Mask |= std::uint32_t(As::ShapeOnly) << indexOf<As>()), ...);
    return Mask;
  }

  static constexpr const char *Names[] = {As::name()...};

  template <template <typename> class T> using Tuple = std::tuple<T<As>...>;
};

/// Every analysis the manager serves, each named once.
using AllAnalyses =
    AnalysisList<CFGEdgesAnalysis, DominatorAnalysis, CycleEquivAnalysis,
                 PSTAnalysis, FactoredCDGAnalysis, DFGAnalysis, RangeAnalysis,
                 TaintAnalysis, NullUseAnalysis>;

/// The analyses a pass left intact, reported after each pass run and
/// consumed by FunctionAnalysisManager::invalidate: one bit per entry of
/// AllAnalyses, plus whether the function was left untouched altogether.
class PreservedAnalyses {
  static_assert(AllAnalyses::Size <= 32, "one mask bit per analysis");
  std::uint32_t Mask = 0;
  bool All = false;

  friend PreservedAnalyses preserveCFGShapeAnalyses();

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
    Mask |= std::uint32_t(1) << AllAnalyses::indexOf<A>();
    return *this;
  }

  bool preservesAll() const { return All; }
  /// True if the analysis at \p Index of AllAnalyses survives.
  bool preserves(unsigned Index) const { return All || (Mask >> Index & 1); }
  template <typename A> bool preserves() const {
    return preserves(AllAnalyses::indexOf<A>());
  }

  bool operator==(const PreservedAnalyses &) const = default;
};

/// The PreservedAnalyses of a pass that changed instructions but left the
/// CFG (blocks, successors) intact: every ShapeOnly analysis survives; the
/// DFG and the clients, which hold Instruction pointers, do not.
inline PreservedAnalyses preserveCFGShapeAnalyses() {
  PreservedAnalyses PA;
  PA.Mask = AllAnalyses::shapeOnlyMask();
  return PA;
}

/// Lazily computed analysis cache for one function, in the style of
/// LLVM's new-pass-manager `AnalysisManager<Function>`: each analysis'
/// result is computed on first demand and served from cache after that.
///
/// The manager carries a *function modification epoch*. When a pass
/// mutates the function, the pipeline calls `invalidate(PreservedAnalyses)`:
/// the epoch advances, the results the pass preserved stay, and every
/// other result is freed and recomputed on next demand. A cached result is
/// therefore always one of the current epoch.
///
/// Per-analysis hit/miss counters are surfaced by depflow-opt's
/// `--time-passes` report and the pass-manager tests.
class FunctionAnalysisManager {
  template <typename A> struct Slot {
    std::optional<typename A::Result> Result;
    std::uint64_t Hits = 0;
    std::uint64_t Misses = 0;
    bool InFlight = false; // Cycle detection during nested run().
  };

  Function &F;
  std::uint64_t CurrentEpoch = 1;
  std::uint64_t VerifiedEpoch = 0; // 0: nothing verified yet.
  AllAnalyses::Tuple<Slot> Slots;

  template <typename A> Slot<A> &slot() { return std::get<Slot<A>>(Slots); }

  /// Calls \p Visit(Slot, Index) on every slot, in list order.
  template <typename Self, typename Fn>
  static void forEachSlot(Self &M, Fn &&Visit) {
    std::apply(
        [&](auto &...S) {
          unsigned I = 0;
          (Visit(S, I++), ...);
        },
        M.Slots);
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
    Slot<A> &S = slot<A>();
    assert(!S.InFlight && "cyclic analysis dependency");
    if (S.Result) {
      ++S.Hits;
      obs::traceInstant("analysis-hit", A::name());
      return *S.Result;
    }
    ++S.Misses;
    S.InFlight = true;
    // The analysis boundary is the robustness layer's cooperative check
    // site: an armed `analysis-fail:<name>` fires here, and a blown
    // per-pass deadline is detected here before more work starts. Both
    // throw; the module pipeline catches at the function-task boundary.
    faultAnalysisCheckpoint(A::name());
    // The span covers only the compute path, so in a trace the cost of an
    // analysis is visibly attributed to the pass that first demanded it;
    // cache hits show up as instant markers.
    {
      obs::TraceSpan Span("analysis", A::name());
      S.Result.emplace(A::run(F, *this));
    }
    S.InFlight = false;
    return *S.Result;
  }

  /// Returns A's cached result if present, else null. Does not compute
  /// and does not count as a hit or a miss.
  template <typename A> typename A::Result *getCachedResult() {
    Slot<A> &S = slot<A>();
    return S.Result ? &*S.Result : nullptr;
  }

  /// The function was mutated; only results in \p PA survive. Advances the
  /// epoch (unless everything is preserved) and frees the rest.
  void invalidate(const PreservedAnalyses &PA) {
    if (PA.preservesAll())
      return;
    ++CurrentEpoch;
    forEachSlot(*this, [&](auto &S, unsigned I) {
      if (!PA.preserves(I))
        S.Result.reset();
    });
  }

  /// Per-analysis cache statistics, plus totals, for instrumentation.
  struct Counter {
    std::string Name;
    std::uint64_t Hits = 0;
    std::uint64_t Misses = 0;
  };
  /// Analyses queried at least once, sorted by name.
  std::vector<Counter> counterSnapshot() const;
  std::uint64_t totalHits() const;
  std::uint64_t totalMisses() const;
};

} // namespace depflow

#endif // DEPFLOW_PASS_ANALYSES_H
