//===- pass/Analyses.h - The registered function analyses -------*- C++ -*-===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The analyses the manager serves, each a thin wrapper that names an
/// existing construction and wires its dependencies through the manager so
/// shared prerequisites are computed once:
///
///   CFGEdgesAnalysis     dense CFG edge numbering (everything edge-based
///                        hangs off it)
///   DominatorAnalysis    dominator tree of the block-level CFG
///   LoopAnalysis         natural loop forest
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
/// whole structure stack once and shares it — previously
/// DepFlowGraph::build recomputed cycle equivalence and the PST privately
/// on every call. The client results hold Instruction pointers, so like
/// the DFG they do not survive instruction mutation
/// (preserveCFGShapeAnalyses drops them).
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
#include "graph/Loops.h"
#include "ir/CFGEdges.h"
#include "pass/AnalysisManager.h"
#include "structure/CycleEquivalence.h"
#include "structure/SESE.h"

namespace depflow {

struct CFGEdgesAnalysis {
  using Result = CFGEdges;
  static const char *name() { return "cfg-edges"; }
  static Result run(Function &F, FunctionAnalysisManager &AM);
};

struct DominatorAnalysis {
  using Result = DomTree;
  static const char *name() { return "domtree"; }
  static Result run(Function &F, FunctionAnalysisManager &AM);
};

struct LoopAnalysis {
  using Result = LoopForest;
  static const char *name() { return "loops"; }
  static Result run(Function &F, FunctionAnalysisManager &AM);
};

struct CycleEquivAnalysis {
  using Result = CycleEquivalence;
  static const char *name() { return "cycle-equiv"; }
  static Result run(Function &F, FunctionAnalysisManager &AM);
};

struct PSTAnalysis {
  using Result = ProgramStructureTree;
  static const char *name() { return "pst"; }
  static Result run(Function &F, FunctionAnalysisManager &AM);
};

struct FactoredCDGAnalysis {
  using Result = FactoredCDG;
  static const char *name() { return "factored-cdg"; }
  static Result run(Function &F, FunctionAnalysisManager &AM);
};

struct DFGAnalysis {
  using Result = DepFlowGraph;
  static const char *name() { return "dfg"; }
  static Result run(Function &F, FunctionAnalysisManager &AM);
};

struct RangeAnalysis {
  using Result = RangeResult;
  static const char *name() { return "range"; }
  static Result run(Function &F, FunctionAnalysisManager &AM);
};

struct TaintAnalysis {
  using Result = TaintResult;
  static const char *name() { return "taint"; }
  static Result run(Function &F, FunctionAnalysisManager &AM);
};

struct NullUseAnalysis {
  using Result = NullUseResult;
  static const char *name() { return "nulluse"; }
  static Result run(Function &F, FunctionAnalysisManager &AM);
};

/// The PreservedAnalyses set for a pass that changed instructions but left
/// the CFG (blocks, successors) intact: every CFG-shape analysis survives;
/// the DFG — which hangs onto Instruction pointers — does not.
PreservedAnalyses preserveCFGShapeAnalyses();

} // namespace depflow

#endif // DEPFLOW_PASS_ANALYSES_H
