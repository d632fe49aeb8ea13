//===- tests/pass_manager_test.cpp - AnalysisManager and pipeline tests ---===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
// Covers the analysis-manager contract: lazy computation, cache hits when
// analyses share dependencies, epoch-based invalidation after a mutating
// pass, PreservedAnalyses keeping CFG-shape analyses (dominators) alive
// through an instruction-only pass as an allocation-free bitmask, runPass's
// own input checks and its verify-once rule, and pipeline-string parsing.
//
//===----------------------------------------------------------------------===//

#include "ParseOrDie.h"
#include "ir/Printer.h"
#include "obs/Metrics.h"
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

TEST(PreservedAnalyses, IsAnAllocationFreeBitmask) {
  auto F = parseFunctionOrDie(DiamondSrc);
  FunctionAnalysisManager AM(*F);
  AM.getResult<DFGAnalysis>();
  {
    // The counting allocator sees this thread's allocations...
    obs::AllocDelta D;
    auto Probe = parseFunctionOrDie(DiamondSrc);
    EXPECT_GT(D.bytes(), 0u);
  }
  // ...and none while a PreservedAnalyses is built, copied and applied.
  obs::AllocDelta D;
  PreservedAnalyses PA = preserveCFGShapeAnalyses();
  PreservedAnalyses Copy = PA;
  AM.invalidate(Copy);
  EXPECT_EQ(D.bytes(), 0u);
  EXPECT_EQ(D.count(), 0u);
  EXPECT_NE(AM.getCachedResult<PSTAnalysis>(), nullptr);
  EXPECT_EQ(AM.getCachedResult<DFGAnalysis>(), nullptr);
}

TEST(PreservedAnalyses, ShapePreservedSetIsTheShapeOnlyAnalyses) {
  const PreservedAnalyses PA = preserveCFGShapeAnalyses();
  EXPECT_FALSE(PA.preservesAll());
  std::vector<std::string> Preserved;
  for (unsigned I = 0; I != AllAnalyses::Size; ++I)
    if (PA.preserves(I))
      Preserved.push_back(AllAnalyses::Names[I]);
  EXPECT_EQ(Preserved,
            (std::vector<std::string>{"cfg-edges", "domtree", "cycle-equiv",
                                      "pst", "factored-cdg"}));
  EXPECT_EQ(AllAnalyses::Size, 9u);
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

// a + b is partially redundant in join, and the insertion point is the
// critical edge entry -> join, which the pass splits first.
const char *CriticalEdgeSrc = R"(
func cr(p, a, b) {
entry:
  x = 0
  if p goto thn else join
thn:
  x = a + b
  goto join
join:
  y = a + b
  ret x, y
}
)";

TEST(AnalysisManager, PREKeepsTheAnalysesItRebuiltAfterItsSplit) {
  auto F = parseFunctionOrDie(CriticalEdgeSrc);
  FunctionAnalysisManager AM(*F);
  AM.getResult<DFGAnalysis>();
  unsigned BlocksBefore = F->numBlocks();

  // The split drops every cached analysis, and the pass recomputes them
  // for the split shape. Its motions keep that shape, so the recomputed
  // CFG-shape analyses survive the pass boundary and serve the next pass.
  ASSERT_TRUE(runPass(*F, PassId::PRE, AM).ok());
  ASSERT_GT(F->numBlocks(), BlocksBefore) << "pre should have split an edge";
  ASSERT_TRUE(runPass(*F, PassId::SSADfg, AM).ok());
  EXPECT_EQ(missesOf(AM, "cycle-equiv"), 2u);
  EXPECT_EQ(missesOf(AM, "pst"), 2u);
  EXPECT_EQ(missesOf(AM, "cfg-edges"), 2u);
}

// 'loop' never reaches the exit, so the function parses but does not
// verify.
const char *NoExitSrc = R"(
func spin(p) {
entry:
  x = p + 1
  if p goto loop else done
loop:
  goto loop
done:
  ret x
}
)";

TEST(RunPass, RejectsInputThatDoesNotVerify) {
  auto F = parseFunctionOrDie(NoExitSrc);
  FunctionAnalysisManager AM(*F);
  const std::string Before = printFunction(*F);
  PreservedAnalyses PA = PreservedAnalyses::none();
  Status S = runPass(*F, PassId::Separate, AM, PassOptions(), &PA);
  ASSERT_FALSE(S.ok());
  EXPECT_NE(S.str().find("pass --separate: input does not verify"),
            std::string::npos)
      << S.str();
  EXPECT_NE(S.str().find("cannot reach the exit"), std::string::npos);
  // Neither the function, the report nor the manager moved.
  EXPECT_EQ(printFunction(*F), Before);
  EXPECT_FALSE(PA.preservesAll());
  EXPECT_FALSE(AM.verified());
  EXPECT_EQ(AM.totalMisses(), 0u);
}

const char *PhiSrc = R"(
func withphi(p) {
entry:
  if p goto thn else els
thn:
  goto join
els:
  goto join
join:
  x = phi(thn: 1, els: 2)
  ret x
}
)";

TEST(RunPass, RejectsInputWithPhis) {
  auto F = parseFunctionOrDie(PhiSrc);
  FunctionAnalysisManager AM(*F);
  const std::string Before = printFunction(*F);
  Status S = runPass(*F, PassId::ConstProp, AM);
  ASSERT_FALSE(S.ok());
  EXPECT_NE(S.str().find("pass --constprop: input already contains phis"),
            std::string::npos)
      << S.str();
  EXPECT_EQ(printFunction(*F), Before);
  EXPECT_EQ(AM.totalMisses(), 0u);
}

TEST(RunPass, VerifiesEachIRStateOnce) {
  auto F = parseFunctionOrDie(DiamondSrc);
  FunctionAnalysisManager AM(*F);
  EXPECT_FALSE(AM.verified()) << "a fresh manager has verified nothing";

  // The first pass verifies its input and, having changed the function,
  // its output at the new epoch.
  ASSERT_TRUE(runPass(*F, PassId::Separate, AM).ok());
  EXPECT_TRUE(AM.verified());
  // A report-only pass changes nothing, so that state stands.
  ASSERT_TRUE(runPass(*F, PassId::Range, AM).ok());
  EXPECT_TRUE(AM.verified());

  // An edit outside runPass goes through invalidate, like any edit the
  // cache must see; the next pass then checks its input again.
  F->exit()->clearTerminator();
  AM.invalidate(PreservedAnalyses::none());
  EXPECT_FALSE(AM.verified());
  Status S = runPass(*F, PassId::Range, AM);
  ASSERT_FALSE(S.ok());
  EXPECT_NE(S.str().find("input does not verify"), std::string::npos)
      << S.str();
}

TEST(PassPipeline, ParsesCanonicalNames) {
  PassPipeline Pipe;
  ASSERT_TRUE(
      PassPipeline::parse("separate, constprop ,pre,ssa-dfg", Pipe).ok());
  ASSERT_EQ(Pipe.passes().size(), 4u);
  EXPECT_EQ(Pipe.passes()[0], PassId::Separate);
  EXPECT_EQ(Pipe.passes()[1], PassId::ConstProp);
  EXPECT_EQ(Pipe.passes()[2], PassId::PRE);
  EXPECT_EQ(Pipe.passes()[3], PassId::SSADfg);
}

TEST(PassPipeline, RejectsEmptyPipeline) {
  PassPipeline Pipe;
  Status S = PassPipeline::parse("", Pipe);
  EXPECT_FALSE(S.ok());
  EXPECT_NE(S.str().find("empty pass pipeline"), std::string::npos);
}

TEST(PassPipeline, RejectsEmptySegmentAndUnknownPass) {
  PassPipeline Pipe;
  EXPECT_FALSE(PassPipeline::parse("separate,,constprop", Pipe).ok());
  Status S = PassPipeline::parse("separate,bogus", Pipe);
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
  for (PassId P : Pipe.passes()) {
    PI.beforePass(P, AM);
    ASSERT_TRUE(runPass(*F, P, AM, Pipe.options()).ok());
    PI.afterPass(P, *F, AM);
  }
  ASSERT_EQ(PI.records().size(), 3u);
  EXPECT_EQ(PI.records()[0].Pass, "separate");
  // constprop's DFG pulls cfg-edges/cycle-equiv/pst through the manager.
  EXPECT_GT(AM.totalMisses(), 0u);
  EXPECT_GT(AM.totalHits(), 0u);
}

} // namespace
