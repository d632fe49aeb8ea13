//===- tests/pass_manager_test.cpp - AnalysisManager and pipeline tests ---===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
// Covers the analysis-manager contract: lazy computation, cache hits when
// analyses share dependencies, epoch-based invalidation after a mutating
// pass, PreservedAnalyses keeping CFG-shape analyses (dominators) alive
// through an instruction-only pass, and pipeline-string parsing.
//
//===----------------------------------------------------------------------===//

#include "ParseOrDie.h"
#include "ir/Printer.h"
#include "pass/Analyses.h"
#include "pass/PassPipeline.h"

#include <gtest/gtest.h>

using namespace depflow;

namespace {

// Constant-foldable diamond: constprop rewrites operands but cannot
// simplify the branch (p is free), so the CFG shape survives the pass.
const char *DiamondSrc = R"(
func diamond(p) {
entry:
  x = 1
  y = x + 2
  if p goto thn else els
thn:
  a = y + 4
  goto join
els:
  a = y + 5
  goto join
join:
  r = a + x
  ret r
}
)";

std::uint64_t missesOf(const FunctionAnalysisManager &AM, const char *Name) {
  for (const auto &C : AM.counterSnapshot())
    if (C.Name == Name)
      return C.Misses;
  return 0;
}

std::uint64_t hitsOf(const FunctionAnalysisManager &AM, const char *Name) {
  for (const auto &C : AM.counterSnapshot())
    if (C.Name == Name)
      return C.Hits;
  return 0;
}

TEST(AnalysisManager, LazyComputation) {
  auto F = parseFunctionOrDie(DiamondSrc);
  FunctionAnalysisManager AM(*F);

  // Nothing runs until asked.
  EXPECT_EQ(AM.totalMisses(), 0u);
  EXPECT_EQ(AM.getCachedResult<DominatorAnalysis>(), nullptr);

  const DomTree &DT = AM.getResult<DominatorAnalysis>();
  EXPECT_EQ(missesOf(AM, "domtree"), 1u);
  EXPECT_EQ(hitsOf(AM, "domtree"), 0u);

  // Second query is a hit, serving the same object.
  const DomTree &Again = AM.getResult<DominatorAnalysis>();
  EXPECT_EQ(&DT, &Again);
  EXPECT_EQ(missesOf(AM, "domtree"), 1u);
  EXPECT_EQ(hitsOf(AM, "domtree"), 1u);
}

TEST(AnalysisManager, DependentAnalysesShareResults) {
  auto F = parseFunctionOrDie(DiamondSrc);
  FunctionAnalysisManager AM(*F);

  // The DFG pulls cfg-edges, then the PST (which itself pulls cfg-edges
  // and cycle-equiv) through the manager: one computation of each, the
  // repeated cfg-edges queries answered from cache.
  AM.getResult<DFGAnalysis>();
  EXPECT_EQ(missesOf(AM, "cfg-edges"), 1u);
  EXPECT_EQ(missesOf(AM, "cycle-equiv"), 1u);
  EXPECT_EQ(missesOf(AM, "pst"), 1u);
  EXPECT_EQ(missesOf(AM, "dfg"), 1u);
  EXPECT_GE(hitsOf(AM, "cfg-edges"), 1u);

  // The factored CDG reuses the cached cycle equivalence.
  AM.getResult<FactoredCDGAnalysis>();
  EXPECT_EQ(missesOf(AM, "cycle-equiv"), 1u);
  EXPECT_GE(hitsOf(AM, "cycle-equiv"), 1u);
}

TEST(AnalysisManager, EpochInvalidationAfterMutatingPass) {
  auto F = parseFunctionOrDie(DiamondSrc);
  FunctionAnalysisManager AM(*F);
  std::uint64_t E0 = AM.epoch();
  AM.getResult<DFGAnalysis>();

  // separateComputation rewrites multi-operation statements: the function
  // text changes, nothing is preserved, the epoch advances.
  ASSERT_TRUE(runPass(*F, PassId::Separate, AM).ok());
  EXPECT_GT(AM.epoch(), E0);
  EXPECT_EQ(AM.getCachedResult<DFGAnalysis>(), nullptr);

  // The next query recomputes against the new epoch.
  AM.getResult<DFGAnalysis>();
  EXPECT_EQ(missesOf(AM, "dfg"), 2u);
  EXPECT_NE(AM.getCachedResult<DFGAnalysis>(), nullptr);
}

TEST(AnalysisManager, PreservedAnalysesReStampsSurvivors) {
  auto F = parseFunctionOrDie(DiamondSrc);
  FunctionAnalysisManager AM(*F);
  const DomTree *DT = &AM.getResult<DominatorAnalysis>();
  AM.getResult<DFGAnalysis>();

  PreservedAnalyses PA;
  PA.preserve<DominatorAnalysis>();
  AM.invalidate(PA);

  // The dominator tree survived (same object, current epoch); the DFG did
  // not.
  EXPECT_EQ(AM.getCachedResult<DominatorAnalysis>(), DT);
  EXPECT_EQ(AM.getCachedResult<DFGAnalysis>(), nullptr);
  EXPECT_EQ(&AM.getResult<DominatorAnalysis>(), DT);
  EXPECT_EQ(missesOf(AM, "domtree"), 1u);
}

TEST(AnalysisManager, ConstPropPreservesDominators) {
  auto F = parseFunctionOrDie(DiamondSrc);
  FunctionAnalysisManager AM(*F);
  ASSERT_TRUE(runPass(*F, PassId::Separate, AM).ok());

  const DomTree *DT = &AM.getResult<DominatorAnalysis>();
  std::string Before = printFunction(*F);

  // Constprop folds y = 1 + 2 (and downstream uses) but cannot decide the
  // branch on the free parameter p: instructions change, the CFG doesn't.
  PreservedAnalyses PA;
  ASSERT_TRUE(runPass(*F, PassId::ConstProp, AM, PassOptions(), &PA).ok());
  ASSERT_NE(printFunction(*F), Before) << "constprop should have folded";

  EXPECT_FALSE(PA.preservesAll());
  EXPECT_TRUE(PA.preserves<DominatorAnalysis>());
  EXPECT_FALSE(PA.preserves<DFGAnalysis>());
  // The tree is served from cache, not recomputed.
  std::uint64_t MissesBefore = missesOf(AM, "domtree");
  EXPECT_EQ(&AM.getResult<DominatorAnalysis>(), DT);
  EXPECT_EQ(missesOf(AM, "domtree"), MissesBefore);
}

TEST(AnalysisManager, NoChangePassPreservesEverything) {
  auto F = parseFunctionOrDie(DiamondSrc);
  FunctionAnalysisManager AM(*F);
  ASSERT_TRUE(runPass(*F, PassId::Separate, AM).ok());
  ASSERT_TRUE(runPass(*F, PassId::ConstProp, AM).ok());

  std::uint64_t E = AM.epoch();
  const DepFlowGraph *G = &AM.getResult<DFGAnalysis>();

  // A second constprop finds nothing left to fold: the function is
  // untouched and even the DFG survives.
  PreservedAnalyses PA;
  ASSERT_TRUE(runPass(*F, PassId::ConstProp, AM, PassOptions(), &PA).ok());
  EXPECT_TRUE(PA.preservesAll());
  EXPECT_EQ(AM.epoch(), E);
  EXPECT_EQ(AM.getCachedResult<DFGAnalysis>(), G);
}

TEST(AnalysisManager, CachingDisabledAlwaysRecomputes) {
  auto F = parseFunctionOrDie(DiamondSrc);
  FunctionAnalysisManager AM(*F);
  AM.setCachingDisabled(true);
  AM.getResult<DominatorAnalysis>();
  AM.getResult<DominatorAnalysis>();
  EXPECT_EQ(missesOf(AM, "domtree"), 2u);
  EXPECT_EQ(hitsOf(AM, "domtree"), 0u);
}

TEST(AnalysisManager, CachingDisabledKeepsDisplacedResultsAlive) {
  // With caching disabled every query recomputes, which displaces the
  // previous result of the same analysis — while references to it may
  // still be live: PST's run() holds the CFG edges across its nested
  // cycle-equivalence query, and pass bodies hold several getResult
  // references across each other. Displaced results must survive until
  // the next pass boundary (regression: use-after-free caught by ASan
  // through bench_pipeline's baseline configuration).
  auto F = parseFunctionOrDie(DiamondSrc);
  FunctionAnalysisManager AM(*F);
  AM.setCachingDisabled(true);

  // Nested displacement inside one top-level query.
  AM.getResult<DFGAnalysis>();
  AM.getResult<DFGAnalysis>();
  EXPECT_EQ(missesOf(AM, "dfg"), 2u);
  EXPECT_GE(missesOf(AM, "cfg-edges"), 4u);
  EXPECT_EQ(hitsOf(AM, "cfg-edges"), 0u);

  // Pass-body pattern: a reference held across a later query that
  // recomputes the same analysis underneath.
  const CFGEdges &Edges = AM.getResult<CFGEdgesAnalysis>();
  unsigned NumEdges = Edges.size();
  AM.getResult<DFGAnalysis>(); // Recomputes cfg-edges; must not free Edges.
  EXPECT_EQ(Edges.size(), NumEdges);

  // The pass boundary releases the parked results.
  AM.invalidate(PreservedAnalyses::none());
}

// a + b is computed in thn and again in join: Morel-Renvoise inserts it
// at the end of els and deletes the join computation. a * b is a second
// candidate, queried after that motion.
const char *PartialRedundancySrc = R"(
func pr(p, a, b) {
entry:
  x = 0
  if p goto thn else els
thn:
  x = a + b
  goto join
els:
  goto join
join:
  y = a + b
  z = a * b
  ret x, y, z
}
)";

TEST(AnalysisManager, PREMotionKeepsCFGShapeAnalyses) {
  auto F = parseFunctionOrDie(PartialRedundancySrc);
  FunctionAnalysisManager AM(*F);
  AM.getResult<DFGAnalysis>();
  std::string Before = printFunction(*F);

  // The motion edits instructions but no successor list. Every
  // candidate's anticipatability is solved on the one DFG before any
  // motion, so the pass builds no second graph; the cached cycle
  // equivalence and PST survive the motion.
  ASSERT_TRUE(runPass(*F, PassId::PRE, AM).ok());
  ASSERT_NE(printFunction(*F), Before) << "pre should have moved a + b";
  EXPECT_EQ(missesOf(AM, "dfg"), 1u);
  EXPECT_EQ(missesOf(AM, "cycle-equiv"), 1u);
  EXPECT_EQ(missesOf(AM, "pst"), 1u);
  EXPECT_EQ(missesOf(AM, "cfg-edges"), 1u);
}

TEST(PassPipeline, ParsesCanonicalNames) {
  std::vector<PassId> Passes;
  ASSERT_TRUE(
      parsePassPipeline("separate, constprop ,pre,ssa-dfg", Passes).ok());
  ASSERT_EQ(Passes.size(), 4u);
  EXPECT_EQ(Passes[0], PassId::Separate);
  EXPECT_EQ(Passes[1], PassId::ConstProp);
  EXPECT_EQ(Passes[2], PassId::PRE);
  EXPECT_EQ(Passes[3], PassId::SSADfg);
}

TEST(PassPipeline, RejectsEmptyPipeline) {
  std::vector<PassId> Passes;
  Status S = parsePassPipeline("", Passes);
  EXPECT_FALSE(S.ok());
  EXPECT_NE(S.str().find("empty pass pipeline"), std::string::npos);
}

TEST(PassPipeline, RejectsEmptySegmentAndUnknownPass) {
  std::vector<PassId> Passes;
  EXPECT_FALSE(parsePassPipeline("separate,,constprop", Passes).ok());
  Status S = parsePassPipeline("separate,bogus", Passes);
  EXPECT_FALSE(S.ok());
  EXPECT_NE(S.str().find("unknown pass 'bogus'"), std::string::npos);
}

TEST(PassPipeline, RunsWholePipelineThroughOneManager) {
  auto F = parseFunctionOrDie(DiamondSrc);
  PassPipeline Pipe;
  ASSERT_TRUE(PassPipeline::parse("separate,constprop,pre", Pipe).ok());
  EXPECT_EQ(Pipe.str(), "separate,constprop,pre");

  FunctionAnalysisManager AM(*F);
  PassInstrumentation PI;
  PI.TimePasses = true;
  ASSERT_TRUE(Pipe.run(*F, AM, &PI).ok());
  ASSERT_EQ(PI.records().size(), 3u);
  EXPECT_EQ(PI.records()[0].Pass, "separate");
  // constprop's DFG pulls cfg-edges/cycle-equiv/pst through the manager.
  EXPECT_GT(AM.totalMisses(), 0u);
  EXPECT_GT(AM.totalHits(), 0u);
}

} // namespace
