//===- pass/Analyses.cpp - The registered function analyses ---------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "pass/Analyses.h"

#include "support/Statistic.h"

#include <type_traits>

using namespace depflow;

DEPFLOW_STATISTIC(NumAnalysesComputed, "analysis",
                  "Analysis results computed (cache misses)");

CFGEdges CFGEdgesAnalysis::run(Function &F, FunctionAnalysisManager &) {
  ++NumAnalysesComputed;
  // Edge numbering reads successor lists only, but everything downstream
  // (merges, postdominators) wants predecessors fresh too.
  F.recomputePreds();
  return CFGEdges(F);
}

DomTree DominatorAnalysis::run(Function &F, FunctionAnalysisManager &) {
  ++NumAnalysesComputed;
  assert(F.entry() && "dominators require a nonempty function");
  return DomTree(F, DomTree::Forward);
}

CycleEquivalence CycleEquivAnalysis::run(Function &F,
                                         FunctionAnalysisManager &AM) {
  ++NumAnalysesComputed;
  const CFGEdges &E = AM.getResult<CFGEdgesAnalysis>();
  return cycleEquivalenceClasses(F, E);
}

ProgramStructureTree PSTAnalysis::run(Function &F,
                                      FunctionAnalysisManager &AM) {
  ++NumAnalysesComputed;
  // Order matters only for readability: both live in stable heap slots, so
  // the second getResult cannot move the first result out from under us.
  const CFGEdges &E = AM.getResult<CFGEdgesAnalysis>();
  const CycleEquivalence &CE = AM.getResult<CycleEquivAnalysis>();
  return ProgramStructureTree(F, E, CE);
}

FactoredCDG FactoredCDGAnalysis::run(Function &F,
                                     FunctionAnalysisManager &AM) {
  ++NumAnalysesComputed;
  const CFGEdges &E = AM.getResult<CFGEdgesAnalysis>();
  const CycleEquivalence &CE = AM.getResult<CycleEquivAnalysis>();
  return buildFactoredCDG(F, E, CE);
}

DepFlowGraph DFGAnalysis::run(Function &F, FunctionAnalysisManager &AM) {
  ++NumAnalysesComputed;
  const CFGEdges &E = AM.getResult<CFGEdgesAnalysis>();
  const ProgramStructureTree &PST = AM.getResult<PSTAnalysis>();
  return DepFlowGraph::build(F, E, PST);
}

// Dataflow results live in the analysis cache and move by value between
// its slots; only their position-based payload may be copied around, and
// the values themselves must be arena-compatible tokens.
static_assert(std::is_trivially_copyable_v<RangeResult::Value> &&
                  std::is_trivially_copyable_v<TaintResult::Value> &&
                  std::is_trivially_copyable_v<NullUseResult::Value>,
              "cached dataflow results require token-sized lattice values");

RangeResult RangeAnalysis::run(Function &F, FunctionAnalysisManager &AM) {
  ++NumAnalysesComputed;
  const DepFlowGraph &G = AM.getResult<DFGAnalysis>();
  RangeResult R;
  // The sparse engine only fails on a broken client (work-bound breach);
  // an analysis result must still come back, so a failure degrades to the
  // empty (all-⊥) result rather than aborting the pipeline.
  (void)runRangeAnalysis(F, &G, EvalMode::SparseDFG, R);
  return R;
}

TaintResult TaintAnalysis::run(Function &F, FunctionAnalysisManager &AM) {
  ++NumAnalysesComputed;
  const DepFlowGraph &G = AM.getResult<DFGAnalysis>();
  TaintResult R;
  (void)runTaintAnalysis(F, &G, EvalMode::SparseDFG, R);
  return R;
}

NullUseResult NullUseAnalysis::run(Function &F, FunctionAnalysisManager &AM) {
  ++NumAnalysesComputed;
  const DepFlowGraph &G = AM.getResult<DFGAnalysis>();
  NullUseResult R;
  (void)runNullUseAnalysis(F, &G, EvalMode::SparseDFG, R);
  return R;
}

PreservedAnalyses depflow::preserveCFGShapeAnalyses() {
  PreservedAnalyses PA;
  PA.preserve<CFGEdgesAnalysis>()
      .preserve<DominatorAnalysis>()
      .preserve<CycleEquivAnalysis>()
      .preserve<PSTAnalysis>()
      .preserve<FactoredCDGAnalysis>();
  return PA;
}
