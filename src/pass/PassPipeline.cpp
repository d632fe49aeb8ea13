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

Status PassPipeline::parse(std::string_view Text, PassPipeline &Out) {
  Out.Passes.clear();
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
    Out.Passes.push_back(*P);
    if (Comma == std::string_view::npos)
      break;
    Rest = Rest.substr(Comma + 1);
  }
  return Status::success();
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

//===----------------------------------------------------------------------===//
// Checked pass execution over the manager
//===----------------------------------------------------------------------===//

namespace {

/// The pass body proper: mutates \p F, consuming cached analyses from
/// \p AM, and sets \p PA to what its changes left valid. A body that
/// changes the CFG and then computes analyses of the new shape invalidates
/// the cache itself first. Fails when an underlying dataflow engine
/// reports an error (work-bound breach, unsplit critical edge).
Status runPassBody(Function &F, PassId P, FunctionAnalysisManager &AM,
                   const PassOptions &Opts, PreservedAnalyses &PA) {
  PA = PreservedAnalyses::all();
  switch (P) {
  case PassId::Separate: {
    unsigned Added = separateComputation(F);
    NumStatementsSeparated += Added;
    if (Added)
      PA = PreservedAnalyses::none();
    break;
  }
  case PassId::ConstProp:
  case PassId::ConstPropCFG: {
    const bool Sparse = P == PassId::ConstProp;
    ConstPropResult CP;
    Status S = runConstantPropagation(
        F, Sparse ? &AM.getResult<DFGAnalysis>() : nullptr,
        Sparse ? EvalMode::SparseDFG : EvalMode::DenseCFG, CP,
        Opts.Predicates);
    if (!S.ok())
      return S;
    ConstantsApplied A = applyConstantsAndDCE(F, CP);
    NumOperandsFolded += A.OperandsFolded;
    // A folded branch or an erased block changes the CFG; rewritten
    // operands and removed definitions keep its shape.
    if (A.CFGChanged)
      PA = PreservedAnalyses::none();
    else if (A.OperandsFolded || A.DefsRemoved)
      PA = preserveCFGShapeAnalyses();
    break;
  }
  case PassId::PRE:
  case PassId::PREBusy: {
    unsigned Split = splitCriticalEdges(F);
    NumCriticalEdgesSplit += Split;
    if (Split) {
      // The cache now holds nothing of the old shape; what the rest of the
      // body computes is for the split one, and the motions below keep
      // that shape. Until a motion edits an instruction, the DFG built
      // below is one of the split function as it stands, so it survives
      // too.
      AM.invalidate(PreservedAnalyses::none());
      PA = preserveCFGShapeAnalyses().preserve<DFGAnalysis>();
    }
    // From here on the CFG shape is fixed, and a motion of expression e1
    // only inserts `t = e1` into a fresh temporary and rewrites e1's own
    // computations in place. No computation of another candidate e2
    // appears, moves or disappears, and neither does any assignment to
    // one of e2's operands, so ANT(e2) is the same on every CFG edge
    // before and after the motion. The same holds for every candidate's
    // local properties, AV, PAV and PP. Hence one call solves every
    // candidate's ANT against one DFG and one word-parallel placement
    // solve serves them all; the motions then run in candidate order on
    // the current function. A failing solve fails the pass before any
    // motion is applied.
    std::vector<Expression> Candidates = collectExpressions(F);
    if (Candidates.empty())
      break;
    const CFGEdges &E = AM.getResult<CFGEdgesAnalysis>();
    const DepFlowGraph &G = AM.getResult<DFGAnalysis>();
    const ProgramStructureTree &PST = AM.getResult<PSTAnalysis>();
    NumExpressionsConsidered += Candidates.size();
    const CandidateSet Cands(F, Candidates);
    std::vector<std::uint64_t> Ant(std::size_t(E.size()) * Cands.words());
    if (Status S = runBatchedAnticipatability(F, E, &G, Cands,
                                              EvalMode::SparseDFG, Ant, &PST);
        !S.ok())
      return S;
    std::vector<PREDecisions> Decisions;
    if (Status S = runPRE(F, E, Cands, Ant,
                          P == PassId::PREBusy ? PREStrategy::Busy
                                               : PREStrategy::MorelRenvoise,
                          Decisions);
        !S.ok())
      return S;
    for (std::size_t K = 0; K != Candidates.size(); ++K) {
      const PREDecisions &D = Decisions[K];
      if (D.Inserts.empty() && D.Deletes.empty())
        continue;
      applyPRE(F, Candidates[K], D);
      // The motions edited instructions only: the DFG (which holds
      // instruction pointers) dies, every CFG-shape analysis survives.
      PA = preserveCFGShapeAnalyses();
    }
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
  case PassId::SSA:
  case PassId::SSADfg: {
    // The DFG route reads its φs off the routing plan, which the
    // structure analyses (kept across instruction edits) feed; it never
    // materializes the graph.
    const DomTree &DT = AM.getResult<DominatorAnalysis>();
    PhiPlacement Placement =
        P == PassId::SSADfg
            ? dfgPhiPlacement(DFGPlan(F, AM.getResult<CFGEdgesAnalysis>(),
                                      AM.getResult<PSTAnalysis>()))
            : cytronPhiPlacement(F, /*Pruned=*/true, DT);
    const std::size_t Phis = Placement.numPhis();
    NumPhisPlaced += Phis;
    // Renaming gives every definition a fresh variable, so a function
    // whose origin map did not grow was left as it was.
    const unsigned Vars = F.numVars();
    std::vector<VarId> OrigOf = applySSA(F, Placement, DT);
    if (Phis || OrigOf.size() != Vars)
      PA = preserveCFGShapeAnalyses();
    break;
  }
  }
  return Status::success();
}

Status passError(PassId P, const char *What) {
  return Status::error(std::string("pass --") + passName(P) + ": " + What);
}

} // namespace

Status depflow::runPass(Function &F, PassId P, FunctionAnalysisManager &AM,
                        const PassOptions &Opts,
                        PreservedAnalyses *PreservedOut) {
  // Preconditions: every pass needs a verified CFG, and everything except
  // plain canonicalization needs phi-free input (the DFG and the dataflow
  // analyses are defined over the base IR; SSA construction would place
  // second-generation phis). The manager's epoch names the IR state, so a
  // state an earlier pass already verified as its output is not verified
  // again as this pass's input.
  if (!AM.verified()) {
    Status Pre = Status::fromMessages(verifyFunction(F));
    if (!Pre.ok()) {
      Status S = passError(P, "input does not verify");
      S.append(Pre);
      return S;
    }
    AM.markVerified();
  }
  if (F.hasPhis())
    return passError(P, "input already contains phis (run on base IR)");

  ++NumPassesRun;
  std::uint64_t HitsBefore = AM.totalHits();
  PreservedAnalyses PA;
  if (Status Body = runPassBody(F, P, AM, Opts, PA); !Body.ok()) {
    Status S = passError(P, "body failed");
    S.append(Body);
    return S;
  }
  if (PreservedOut)
    *PreservedOut = PA;
  AM.invalidate(PA);
  NumAnalysisHits += AM.totalHits() - HitsBefore;
  if (PA.preservesAll()) {
    // Nothing changed: the input's verification still stands.
    ++NumPassesNoChange;
    return Status::success();
  }

  Status Post = Status::fromMessages(verifyFunction(F));
  if (!Post.ok()) {
    Status S = passError(P, "output does not verify (miscompile)");
    S.append(Post);
    S.addError("offending output:\n" + printFunction(F));
    return S;
  }
  AM.markVerified();
  return Status::success();
}
