//===- pass/PassPipeline.h - Textual pass pipelines -------------*- C++ -*-===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The managed way to run passes. A `PassPipeline` is parsed from textual
/// form ("separate,constprop,pre") and runs its passes in order over one
/// `FunctionAnalysisManager`, so analyses computed for one pass are served
/// from cache to the next, and each pass's `PreservedAnalyses` decides
/// what survives it:
///
///   * a pass that did not change the function preserves everything;
///   * a pass that changed instructions but not the CFG shape preserves
///     every CFG-shape analysis (dominators, loops, cycle equivalence,
///     PST, factored CDG, edge numbering) and invalidates the DFG;
///   * a pass that changed the CFG preserves nothing.
///
/// `runPass(F, P, AM, ...)` is the checked single-pass entry:
/// preconditions are validated (a verified, phi-free function), the output
/// re-verifies, and failures come back as a Status instead of an assert.
///
/// `PassInstrumentation` hangs observation off the pipeline: per-pass wall
/// time, analysis hit/miss deltas, and allocation deltas (--time-passes /
/// --stats-json), a trace span per pass on the global obs recorder
/// (--trace-json), IR dumps after every pass (--print-after-all), and
/// GraphViz dumps (--dot-after-all).
///
//===----------------------------------------------------------------------===//

#ifndef DEPFLOW_PASS_PASSPIPELINE_H
#define DEPFLOW_PASS_PASSPIPELINE_H

#include "obs/Trace.h"
#include "pass/AnalysisManager.h"
#include "pass/Pass.h"
#include "support/Error.h"

#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace depflow {

/// Observation hooks threaded through PassPipeline::run.
class PassInstrumentation {
public:
  bool TimePasses = false;    // Record wall time + analysis hits per pass.
  bool PrintAfterAll = false; // Dump the IR after every pass.
  bool DotAfterAll = false;   // Dump DFG (phi-free) or CFG dot after every
                              // pass.
  std::FILE *Out = stderr;    // Dump / report destination.

  struct Record {
    std::string Pass;
    double Seconds = 0;
    std::uint64_t AnalysisHits = 0;   // Cache hits during this pass.
    std::uint64_t AnalysisMisses = 0; // Analyses (re)computed during it.
    std::uint64_t AllocBytes = 0;     // Heap requested during this pass
                                      // (obs counting-allocator delta on
                                      // the executing thread).
  };

  const std::vector<Record> &records() const { return Records; }

  /// The --time-passes report: per-pass timing plus the manager's
  /// per-analysis hit/miss table.
  void printReport(const FunctionAnalysisManager &AM) const;

  // Pipeline-internal hooks.
  void beforePass(PassId P, const FunctionAnalysisManager &AM);
  void afterPass(PassId P, Function &F, FunctionAnalysisManager &AM);

private:
  std::vector<Record> Records;
  double StartSeconds = 0;
  std::uint64_t StartHits = 0, StartMisses = 0;
  std::uint64_t StartAllocBytes = 0;
  // The in-flight pass's trace span (--trace-json): opened in beforePass,
  // committed in afterPass. Inert while the global recorder is off.
  std::optional<obs::TraceSpan> ActiveSpan;
};

/// Parses a comma-separated pass list ("separate,constprop,pre").
/// Whitespace around names is ignored. Empty pipelines, empty segments,
/// and unknown pass names are diagnosed (depflow-opt exits 2 on them).
Status parsePassPipeline(std::string_view Text, std::vector<PassId> &Out);

class PassPipeline {
  std::vector<PassId> Passes;
  PassOptions Opts;

public:
  PassPipeline() = default;
  explicit PassPipeline(std::vector<PassId> Passes, PassOptions Opts = {})
      : Passes(std::move(Passes)), Opts(Opts) {}

  /// Parses \p Text into \p Out (options untouched).
  static Status parse(std::string_view Text, PassPipeline &Out);

  const std::vector<PassId> &passes() const { return Passes; }
  bool empty() const { return Passes.empty(); }
  void append(PassId P) { Passes.push_back(P); }

  PassOptions &options() { return Opts; }
  const PassOptions &options() const { return Opts; }

  /// Textual form that parses back to this pipeline.
  std::string str() const;

  /// Runs every pass in order over \p AM's function, stopping at the first
  /// failure. \p PI may be null.
  Status run(Function &F, FunctionAnalysisManager &AM,
             PassInstrumentation *PI = nullptr) const;
};

/// Runs \p P on \p F through the manager: preconditions are validated, the
/// pass consumes cached analyses, the output re-verifies, and the cache is
/// invalidated per the pass's PreservedAnalyses (also written to
/// \p PreservedOut when non-null). On precondition failure \p F and the
/// cache are untouched.
Status runPass(Function &F, PassId P, FunctionAnalysisManager &AM,
               const PassOptions &Opts = {},
               PreservedAnalyses *PreservedOut = nullptr);

} // namespace depflow

#endif // DEPFLOW_PASS_PASSPIPELINE_H
