//===- pass/PassPipeline.cpp - Textual pass pipelines ---------------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "pass/PassPipeline.h"

#include "dataflow/Anticipatability.h"
#include "dataflow/ConstantPropagation.h"
#include "dataflow/PRE.h"
#include "ir/Printer.h"
#include "ir/Transforms.h"
#include "ir/Verifier.h"
#include "obs/Metrics.h"
#include "pass/Analyses.h"
#include "ssa/SSA.h"
#include "support/Statistic.h"

#include <chrono>
#include <optional>

using namespace depflow;

DEPFLOW_STATISTIC(NumPassesRun, "pipeline", "Passes executed");
DEPFLOW_STATISTIC(NumPassesNoChange, "pipeline",
                  "Passes that left the function untouched");
DEPFLOW_STATISTIC(NumAnalysisHits, "analysis",
                  "Analysis queries answered from cache");
DEPFLOW_STATISTIC(NumStatementsSeparated, "separate",
                  "Statements split by separateComputation");
DEPFLOW_STATISTIC(NumOperandsFolded, "constprop",
                  "Operands rewritten to constants");
DEPFLOW_STATISTIC(NumCriticalEdgesSplit, "pre", "Critical edges split");
DEPFLOW_STATISTIC(NumExpressionsConsidered, "pre",
                  "Expressions considered for code motion");
DEPFLOW_STATISTIC(NumPhisPlaced, "ssa", "Phi-functions placed");

//===----------------------------------------------------------------------===//
// Pipeline parsing
//===----------------------------------------------------------------------===//

namespace {

std::string_view trim(std::string_view S) {
  while (!S.empty() && (S.front() == ' ' || S.front() == '\t'))
    S.remove_prefix(1);
  while (!S.empty() && (S.back() == ' ' || S.back() == '\t'))
    S.remove_suffix(1);
  return S;
}

std::string knownPassNames() {
  std::string Names;
  for (PassId P : allPasses()) {
    if (!Names.empty())
      Names += ", ";
    Names += passName(P);
  }
  return Names;
}

} // namespace

Status depflow::parsePassPipeline(std::string_view Text,
                                  std::vector<PassId> &Out) {
  Out.clear();
  if (trim(Text).empty())
    return Status::error("empty pass pipeline: expected a comma-separated "
                         "list of passes (" +
                         knownPassNames() + ")");
  std::string_view Rest = Text;
  while (true) {
    std::size_t Comma = Rest.find(',');
    std::string_view Tok = trim(Rest.substr(0, Comma));
    if (Tok.empty())
      return Status::error("empty pass name in pipeline '" +
                           std::string(Text) + "'");
    std::optional<PassId> P = passByName(Tok);
    if (!P)
      return Status::error("unknown pass '" + std::string(Tok) +
                           "' in pipeline '" + std::string(Text) +
                           "' (known passes: " + knownPassNames() + ")");
    Out.push_back(*P);
    if (Comma == std::string_view::npos)
      break;
    Rest = Rest.substr(Comma + 1);
  }
  return Status::success();
}

Status PassPipeline::parse(std::string_view Text, PassPipeline &Out) {
  return parsePassPipeline(Text, Out.Passes);
}

std::string PassPipeline::str() const {
  std::string S;
  for (PassId P : Passes) {
    if (!S.empty())
      S += ",";
    S += passName(P);
  }
  return S;
}

//===----------------------------------------------------------------------===//
// Instrumentation
//===----------------------------------------------------------------------===//

namespace {

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

} // namespace

void PassInstrumentation::beforePass(PassId P,
                                     const FunctionAnalysisManager &AM) {
  ActiveSpan.emplace("pass", passName(P));
  ActiveSpan->arg("function", AM.function().name());
  StartSeconds = nowSeconds();
  StartHits = AM.totalHits();
  StartMisses = AM.totalMisses();
  StartAllocBytes = obs::threadAllocatedBytes();
}

void PassInstrumentation::afterPass(PassId P, Function &F,
                                    FunctionAnalysisManager &AM) {
  Record R;
  R.Pass = passName(P);
  R.Seconds = nowSeconds() - StartSeconds;
  R.AnalysisHits = AM.totalHits() - StartHits;
  R.AnalysisMisses = AM.totalMisses() - StartMisses;
  R.AllocBytes = obs::threadAllocatedBytes() - StartAllocBytes;
  // Commit the span before the (possibly slow) dump paths below so its
  // duration brackets the same interval as R.Seconds — the obs tests hold
  // the two reports to within a small tolerance of each other.
  ActiveSpan.reset();
  Records.push_back(std::move(R));

  if (PrintAfterAll)
    std::fprintf(Out, "; *** IR after --%s ***\n%s", passName(P),
                 printFunction(F).c_str());
  if (DotAfterAll) {
    // The DFG is only defined over phi-free IR; past an SSA pass, fall
    // back to the CFG. Going through the manager makes the dump itself a
    // cache client.
    if (!F.hasPhis())
      std::fprintf(Out, "// *** DFG after --%s ***\n%s", passName(P),
                   AM.getResult<DFGAnalysis>().toDot(F).c_str());
    else
      std::fprintf(Out, "// *** CFG after --%s ***\n%s", passName(P),
                   printCFGDot(F).c_str());
  }
}

void PassInstrumentation::printReport(
    const FunctionAnalysisManager &AM) const {
  std::fprintf(Out, "===-------------------------------------------===\n");
  std::fprintf(Out, "            ... Pass execution timing ...\n");
  std::fprintf(Out, "===-------------------------------------------===\n");
  double Total = 0;
  for (const Record &R : Records)
    Total += R.Seconds;
  for (const Record &R : Records)
    std::fprintf(Out,
                 "  %10.6fs (%5.1f%%)  %-14s analyses: %llu reused, "
                 "%llu computed; %llu KiB allocated\n",
                 R.Seconds, Total > 0 ? 100.0 * R.Seconds / Total : 0.0,
                 R.Pass.c_str(), (unsigned long long)R.AnalysisHits,
                 (unsigned long long)R.AnalysisMisses,
                 (unsigned long long)(R.AllocBytes / 1024));
  std::fprintf(Out, "  %10.6fs (100.0%%)  total\n", Total);

  std::fprintf(Out, "===-------------------------------------------===\n");
  std::fprintf(Out, "            ... Analysis cache hit/miss ...\n");
  std::fprintf(Out, "===-------------------------------------------===\n");
  std::uint64_t Hits = 0, Misses = 0;
  for (const auto &C : AM.counterSnapshot()) {
    std::fprintf(Out, "  %-14s %6llu hit(s), %6llu miss(es)\n",
                 C.Name.c_str(), (unsigned long long)C.Hits,
                 (unsigned long long)C.Misses);
    Hits += C.Hits;
    Misses += C.Misses;
  }
  double Rate = Hits + Misses ? 100.0 * double(Hits) / double(Hits + Misses)
                              : 0.0;
  std::fprintf(Out, "  %-14s %6llu hit(s), %6llu miss(es) (%.1f%% hit rate)\n",
               "total", (unsigned long long)Hits, (unsigned long long)Misses,
               Rate);
}

//===----------------------------------------------------------------------===//
// Checked pass execution over the manager
//===----------------------------------------------------------------------===//

namespace {

/// Successor-list snapshot; two equal shapes mean every CFG-shape analysis
/// (block ids, edge ids, dominance, regions) is still valid. Flattened
/// into one vector: each block in id order contributes its successor
/// count followed by the successor ids, an encoding that decodes uniquely.
std::vector<unsigned> cfgShape(const Function &F) {
  std::vector<unsigned> Shape;
  Shape.reserve(3 * std::size_t(F.numBlocks()));
  for (const auto &BB : F.blocks()) {
    const std::vector<BasicBlock *> &Succs = BB->successors();
    Shape.push_back(unsigned(Succs.size()));
    for (const BasicBlock *S : Succs)
      Shape.push_back(S->id());
  }
  return Shape;
}

/// The pass body proper: mutates \p F, consuming cached analyses from
/// \p AM. \p Shape is the CFG shape the cached analyses were computed
/// for; a body that changes the shape and invalidates the cache itself
/// updates it. Fails when an underlying dataflow engine reports an error
/// (work-bound breach, unsplit critical edge).
Status runPassBody(Function &F, PassId P, FunctionAnalysisManager &AM,
                   const PassOptions &Opts, std::vector<unsigned> &Shape) {
  switch (P) {
  case PassId::Separate:
    NumStatementsSeparated += separateComputation(F);
    break;
  case PassId::ConstProp: {
    const DepFlowGraph &G = AM.getResult<DFGAnalysis>();
    ConstPropResult CP;
    Status S = runConstantPropagation(F, &G, EvalMode::SparseDFG, CP,
                                      Opts.Predicates);
    if (!S.ok())
      return S;
    NumOperandsFolded += applyConstantsAndDCE(F, CP);
    break;
  }
  case PassId::ConstPropCFG: {
    ConstPropResult CP;
    Status S = runConstantPropagation(F, /*G=*/nullptr, EvalMode::DenseCFG,
                                      CP, Opts.Predicates);
    if (!S.ok())
      return S;
    NumOperandsFolded += applyConstantsAndDCE(F, CP);
    break;
  }
  case PassId::PRE:
  case PassId::PREBusy: {
    unsigned Split = splitCriticalEdges(F);
    NumCriticalEdgesSplit += Split;
    if (Split) {
      // The cache now holds nothing of the old shape; what the rest of the
      // body computes is for the split one.
      AM.invalidate(PreservedAnalyses::none());
      Shape = cfgShape(F);
    }
    // From here on the CFG shape is fixed, and a motion of expression e1
    // only inserts `t = e1` into a fresh temporary and rewrites e1's own
    // computations in place. No computation of another candidate e2
    // appears, moves or disappears, and neither does any assignment to
    // one of e2's operands, so ANT(e2) is the same on every CFG edge
    // before and after the motion. Hence every candidate's ANT is solved
    // up front against one DFG and one projection context, and the
    // motions then run in candidate order on the current function. A
    // failing solve fails the pass before any motion is applied.
    std::vector<Expression> Candidates = collectExpressions(F);
    if (Candidates.empty())
      break;
    const CFGEdges &E = AM.getResult<CFGEdgesAnalysis>();
    const DepFlowGraph &G = AM.getResult<DFGAnalysis>();
    ProjectionContext Ctx(F, E);
    std::vector<std::vector<bool>> Ants(Candidates.size());
    for (std::size_t K = 0; K != Candidates.size(); ++K) {
      ++NumExpressionsConsidered;
      Status S = runExpressionAnticipatability(F, E, &G, Candidates[K],
                                               EvalMode::SparseDFG, Ants[K],
                                               /*Pan=*/nullptr, &Ctx);
      if (!S.ok())
        return S;
    }
    // The same invariance holds for every candidate's local properties,
    // AV, PAV and PP, so one word-parallel placement solve serves them all.
    std::vector<PREDecisions> Decisions;
    if (Status S = runPRE(F, E, Candidates, Ants,
                          P == PassId::PREBusy ? PREStrategy::Busy
                                               : PREStrategy::MorelRenvoise,
                          Decisions);
        !S.ok())
      return S;
    bool Moved = false;
    for (std::size_t K = 0; K != Candidates.size(); ++K) {
      const PREDecisions &D = Decisions[K];
      if (D.Inserts.empty() && D.Deletes.empty())
        continue;
      applyPRE(F, Candidates[K], D);
      Moved = true;
    }
    // The motions edited instructions only: the DFG (which holds
    // instruction pointers) dies, every CFG-shape analysis survives.
    if (Moved)
      AM.invalidate(preserveCFGShapeAnalyses());
    break;
  }
  case PassId::Range:
    // Report-only clients: computing the result registers and bumps the
    // pass's counter group; consumers read it via --counters-json.
    (void)AM.getResult<RangeAnalysis>();
    break;
  case PassId::Taint:
    (void)AM.getResult<TaintAnalysis>();
    break;
  case PassId::NullUse:
    (void)AM.getResult<NullUseAnalysis>();
    break;
  case PassId::SSA: {
    const DomTree &DT = AM.getResult<DominatorAnalysis>();
    PhiPlacement Placement = cytronPhiPlacement(F, /*Pruned=*/true, DT);
    for (const auto &Vars : Placement)
      NumPhisPlaced += Vars.size();
    applySSA(F, Placement, DT);
    break;
  }
  case PassId::SSADfg: {
    const DepFlowGraph &G = AM.getResult<DFGAnalysis>();
    const DomTree &DT = AM.getResult<DominatorAnalysis>();
    PhiPlacement Placement = dfgPhiPlacement(F, G);
    for (const auto &Vars : Placement)
      NumPhisPlaced += Vars.size();
    applySSA(F, Placement, DT);
    break;
  }
  }
  return Status::success();
}

} // namespace

Status depflow::runPass(Function &F, PassId P, FunctionAnalysisManager &AM,
                        const PassOptions &Opts,
                        PreservedAnalyses *PreservedOut) {
  // Preconditions: every pass needs a verified CFG, and everything except
  // plain canonicalization needs phi-free input (the DFG and the dataflow
  // analyses are defined over the base IR; SSA construction would place
  // second-generation phis).
  {
    Status Pre = Status::fromMessages(verifyFunction(F));
    if (!Pre.ok()) {
      Status S = Status::error(std::string("pass --") + passName(P) +
                               ": input does not verify");
      S.append(Pre);
      return S;
    }
    if (F.hasPhis())
      return Status::error(std::string("pass --") + passName(P) +
                           ": input already contains phis (run on base IR)");
  }

  ++NumPassesRun;
  std::vector<unsigned> Shape = cfgShape(F);
  const std::string TextBefore = printFunction(F);
  std::uint64_t HitsBefore = AM.totalHits();

  if (Status Body = runPassBody(F, P, AM, Opts, Shape); !Body.ok()) {
    Status S = Status::error(std::string("pass --") + passName(P) +
                             ": body failed");
    S.append(Body);
    return S;
  }

  // What survived? Text identical: the pass was a no-op and everything is
  // still valid. CFG shape identical to the one the cache was last
  // computed for: instructions changed, so the DFG (which holds
  // instruction pointers) dies but every CFG-shape analysis survives.
  // Otherwise: nothing does.
  PreservedAnalyses PA = PreservedAnalyses::none();
  if (printFunction(F) == TextBefore) {
    PA = PreservedAnalyses::all();
    ++NumPassesNoChange;
  } else if (cfgShape(F) == Shape) {
    PA = preserveCFGShapeAnalyses();
  }
  if (PreservedOut)
    *PreservedOut = PA;
  AM.invalidate(PA);
  NumAnalysisHits += AM.totalHits() - HitsBefore;

  Status Post = Status::fromMessages(verifyFunction(F));
  if (!Post.ok()) {
    Status S = Status::error(std::string("pass --") + passName(P) +
                             ": output does not verify (miscompile)");
    S.append(Post);
    S.addError("offending output:\n" + printFunction(F));
    return S;
  }
  return Status::success();
}

Status PassPipeline::run(Function &F, FunctionAnalysisManager &AM,
                         PassInstrumentation *PI) const {
  for (PassId P : Passes) {
    if (PI)
      PI->beforePass(P, AM);
    Status S = depflow::runPass(F, P, AM, Opts);
    if (!S.ok())
      return S;
    if (PI)
      PI->afterPass(P, F, AM);
  }
  return Status::success();
}
