//===- pass/PassPipeline.h - Textual pass pipelines -------------*- C++ -*-===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The managed way to run passes. A `PassPipeline` is a pass list parsed
/// from textual form ("separate,constprop,pre") plus its options;
/// runPipelineOnModule (pass/ModulePipeline.h) runs it over every function
/// of a module, one `FunctionAnalysisManager` per function, so analyses
/// computed for one pass are served from cache to the next.
///
/// `runPass(F, P, AM, ...)` is the checked single-pass entry. Each pass
/// body reports the `PreservedAnalyses` of what it did, and the manager
/// drops everything else:
///
///   * a pass that did not change the function preserves everything;
///   * a pass that changed instructions but not the CFG shape preserves
///     every CFG-shape analysis (edge numbering, dominators, cycle
///     equivalence, PST, factored CDG) and invalidates the DFG and the
///     dataflow clients;
///   * a pass that changed the CFG preserves nothing.
///
/// checkReportedChange (verify/Oracles.h) holds every report against the
/// printed text and the successor lists, on every fuzz iteration.
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
#include "pass/Analyses.h"
#include "pass/Pass.h"
#include "support/Error.h"

#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace depflow {

/// Observation hooks around each runPass of a function's pipeline: one
/// Record per pass, plus the dumps.
class PassInstrumentation {
public:
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

  // Called by the driver around each runPass.
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

class PassPipeline {
  std::vector<PassId> Passes;
  PassOptions Opts;

public:
  PassPipeline() = default;
  explicit PassPipeline(std::vector<PassId> Passes, PassOptions Opts = {})
      : Passes(std::move(Passes)), Opts(Opts) {}

  /// Parses a comma-separated pass list ("separate,constprop,pre") into
  /// \p Out's passes, replacing them; options are untouched. Whitespace
  /// around names is ignored. Empty pipelines, empty segments, and unknown
  /// pass names are diagnosed (depflow-opt exits 2 on them).
  static Status parse(std::string_view Text, PassPipeline &Out);

  const std::vector<PassId> &passes() const { return Passes; }
  bool empty() const { return Passes.empty(); }
  void append(PassId P) { Passes.push_back(P); }

  PassOptions &options() { return Opts; }
  const PassOptions &options() const { return Opts; }

  /// Textual form that parses back to this pipeline.
  std::string str() const;
};

/// Runs \p P on \p F through the manager: preconditions are validated (a
/// verified, phi-free function), the pass consumes cached analyses, and
/// the cache is invalidated per the PreservedAnalyses the pass reports
/// (also written to \p PreservedOut when non-null). Failures come back as
/// a Status instead of an assert. On precondition failure \p F and the
/// cache are untouched.
///
/// Each IR state is verified once. The manager records the epoch at which
/// \p F last verified: the input is verified only when the current epoch
/// has not been, and the output only when the pass reported a change,
/// which then records the new epoch. A fresh manager has verified
/// nothing, so the first pass checks its input. A caller that edits \p F
/// between passes must invalidate \p AM, as for any cached analysis.
Status runPass(Function &F, PassId P, FunctionAnalysisManager &AM,
               const PassOptions &Opts = {},
               PreservedAnalyses *PreservedOut = nullptr);

} // namespace depflow

#endif // DEPFLOW_PASS_PASSPIPELINE_H
