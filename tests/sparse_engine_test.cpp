//===- tests/sparse_engine_test.cpp - Engine client fixpoint tests --------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
// Hand-computed fixpoints for the three report-only engine clients (range,
// taint, nulluse) on the paper's Figure 1/3 shapes plus a counting loop.
// Every fixture is solved in both engine modes (sparse over the DFG,
// dense over the CFG) and the pair must pass the library's sparse/dense
// comparator (compareEvalModes, src/verify/Oracles.h) — the same check
// depflow-fuzz runs on every generated program.
//
//===----------------------------------------------------------------------===//

#include "core/DepFlowGraph.h"
#include "dataflow/NullUseAnalysis.h"
#include "dataflow/RangeAnalysis.h"
#include "dataflow/TaintAnalysis.h"
#include "ParseOrDie.h"
#include "ir/Printer.h"
#include "verify/Oracles.h"

#include <gtest/gtest.h>

using namespace depflow;

namespace {

/// Finds the instruction at position \p Idx of the block labeled \p Label.
const Instruction *instrAt(const Function &F, const std::string &Label,
                           unsigned Idx) {
  for (const auto &BB : F.blocks())
    if (BB->label() == Label)
      return BB->instructions()[Idx].get();
  return nullptr;
}

/// Solves \p F with \p Run in both modes and requires the library
/// comparator to accept the pair before handing the sparse result back
/// for the hand-computed assertions.
template <typename Result, typename RunFn>
Result solveChecked(Function &F, RunFn Run) {
  DepFlowGraph G = DepFlowGraph::build(F);
  Result Sparse, Dense;
  EXPECT_TRUE(Run(F, &G, EvalMode::SparseDFG, Sparse).ok());
  EXPECT_TRUE(Run(F, nullptr, EvalMode::DenseCFG, Dense).ok());
  Status S = compareEvalModes(F, Sparse, Dense, "fixture");
  EXPECT_TRUE(S.ok()) << S.str() << "\n" << printFunction(F);
  return Sparse;
}

// The paper's Figure 3b: the branch predicate is the constant 1, so only
// the then-arm is a possible path.
const char *Fig3bSrc = R"(
func fig3b() {
entry:
  p = 1
  if p goto thn else els
thn:
  x = 1
  goto join
els:
  x = 2
  goto join
join:
  y = x
  ret y
}
)";

// Figure 3a with a free predicate: both arms run, both compute x = 3.
const char *Fig3aSrc = R"(
func fig3a(p) {
entry:
  if p goto thn else els
thn:
  z = 1
  x = z + 2
  goto join
els:
  z = 2
  x = z + 1
  goto join
join:
  y = x
  ret y
}
)";

// A diamond that assigns x on only one arm — the classic use-before-init
// shape the nulluse client exists for.
const char *MaybeInitSrc = R"(
func maybe(p) {
entry:
  if p goto a else b
a:
  x = 1
  goto join
b:
  t = 0
  goto join
join:
  y = x + 1
  ret y
}
)";

// A counting loop with a data-dependent bound: the interval for i has to
// climb the power-of-two bound ladder and stabilize at [0, +inf].
const char *CountSrc = R"(
func count(n) {
entry:
  i = 0
  goto head
head:
  t = i < n
  if t goto body else out
body:
  i = i + 1
  goto head
out:
  ret i
}
)";

//===----------------------------------------------------------------------===//
// Range client
//===----------------------------------------------------------------------===//

TEST(SparseEngineRange, Figure3bPrunesTheDeadArm) {
  auto F = parseFunctionOrDie(Fig3bSrc);
  RangeResult R = solveChecked<RangeResult>(*F, runRangeAnalysis);

  // p = 1 cannot be false, so els (block 2) is unreachable for range —
  // the interval client prunes exactly like constprop does.
  EXPECT_TRUE(R.ExecutableBlock[0]);
  EXPECT_TRUE(R.ExecutableBlock[1]);
  EXPECT_FALSE(R.ExecutableBlock[2]);
  EXPECT_TRUE(R.ExecutableBlock[3]);

  // Only the then-arm's x = 1 reaches the join.
  IntervalVal XUse = R.useValue(instrAt(*F, "join", 0), 0);
  EXPECT_TRUE(XUse.isPoint());
  EXPECT_EQ(XUse.lo(), 1);
  IntervalVal Ret = R.useValue(instrAt(*F, "join", 1), 0);
  EXPECT_TRUE(Ret.isPoint());
  EXPECT_EQ(Ret.lo(), 1);

  // Var uses: the branch's p, the join's x, the ret's y — all points.
  EXPECT_EQ(R.numPointVarUses(), 3u);
  EXPECT_EQ(R.numBoundedVarUses(), 3u);
}

TEST(SparseEngineRange, MaybeInitDiamondHull) {
  auto F = parseFunctionOrDie(MaybeInitSrc);
  RangeResult R = solveChecked<RangeResult>(*F, runRangeAnalysis);

  // x is 1 via a, and keeps its entry value 0 via b: the hull is [0, 1]
  // (both bounds sit on the ladder, so no rounding).
  IntervalVal XUse = R.useValue(instrAt(*F, "join", 0), 0);
  ASSERT_FALSE(XUse.isBottom());
  EXPECT_EQ(XUse.lo(), 0);
  EXPECT_EQ(XUse.hi(), 1);

  // y = x + 1 shifts the interval: the returned value lies in [1, 2].
  IntervalVal Ret = R.useValue(instrAt(*F, "join", 1), 0);
  ASSERT_FALSE(Ret.isBottom());
  EXPECT_EQ(Ret.lo(), 1);
  EXPECT_EQ(Ret.hi(), 2);

  for (unsigned B = 0; B != F->numBlocks(); ++B)
    EXPECT_TRUE(R.ExecutableBlock[B]) << "block " << B;
}

TEST(SparseEngineRange, CountingLoopClimbsTheLadderToInfinity) {
  auto F = parseFunctionOrDie(CountSrc);
  RangeResult R = solveChecked<RangeResult>(*F, runRangeAnalysis);

  // i starts at 0 and only grows; the ladder widening must terminate, not
  // loop forever refining the upper bound. Past +inf, i + 1 can wrap to
  // any value, so the climb ends at top.
  IntervalVal IUse = R.useValue(instrAt(*F, "head", 0), 0);
  ASSERT_FALSE(IUse.isBottom());
  EXPECT_TRUE(IUse.isTop());

  // The comparison's result is boolean no matter how wild its inputs are.
  IntervalVal TUse = R.useValue(instrAt(*F, "head", 1), 0);
  ASSERT_FALSE(TUse.isBottom());
  EXPECT_EQ(TUse.lo(), 0);
  EXPECT_EQ(TUse.hi(), 1);

  IntervalVal Ret = R.useValue(instrAt(*F, "out", 0), 0);
  ASSERT_FALSE(Ret.isBottom());
  EXPECT_TRUE(Ret.isTop());
}

// Doubling a negative value wraps to 0 after 64 rounds, so the loop exits
// and returns 0. Saturating the bounds at -inf claimed v0 < 0 forever and
// the exit dead (found by depflow-fuzz --iters 2000 --seed 20260806).
const char *DoublingSrc = R"(
func dbl() {
entry:
  v0 = - 7
  goto body
body:
  v0 = v0 + v0
  if v0 goto body else after
after:
  ret v0
}
)";

TEST(SparseEngineRange, WrappingArithmeticIsTop) {
  auto F = parseFunctionOrDie(DoublingSrc);
  RangeResult R = solveChecked<RangeResult>(*F, runRangeAnalysis);
  IntervalVal Ret = R.useValue(instrAt(*F, "after", 0), 0);
  ASSERT_FALSE(Ret.isBottom()) << "the loop exit is reachable";
  EXPECT_TRUE(Ret.isTop());
  RNG Rand(1);
  Status S = checkRangeContainsOutputs(*F, R, Rand);
  EXPECT_TRUE(S.ok()) << S.str();

  // Each bound is exact while it fits in int64, and top once it leaves.
  const IntervalVal Neg = IntervalVal::range(IntervalVal::NegInf, -7);
  const IntervalVal Pos = IntervalVal::range(0, IntervalVal::PosInf);
  EXPECT_TRUE(rangeBinOp(BinOp::Add, Neg, Neg).isTop());
  EXPECT_TRUE(rangeBinOp(BinOp::Add, Pos, IntervalVal::point(1)).isTop());
  EXPECT_EQ(rangeBinOp(BinOp::Add, Neg, IntervalVal::point(1)),
            IntervalVal::range(IntervalVal::NegInf, -3));
  EXPECT_TRUE(rangeBinOp(BinOp::Sub, Pos, IntervalVal::point(-1)).isTop());
  EXPECT_EQ(rangeBinOp(BinOp::Mul, Pos, IntervalVal::range(0, 1)), Pos);
  EXPECT_TRUE(rangeBinOp(BinOp::Mul, Pos, IntervalVal::range(0, 2)).isTop());
  EXPECT_TRUE(rangeUnOp(UnOp::Neg, Neg).isTop());
  EXPECT_EQ(rangeUnOp(UnOp::Neg, Pos),
            IntervalVal::range(-IntervalVal::PosInf, 0));
}

//===----------------------------------------------------------------------===//
// Taint client
//===----------------------------------------------------------------------===//

TEST(SparseEngineTaint, ParametersTaintTheirUsesOnly) {
  auto F = parseFunctionOrDie(Fig3aSrc);
  TaintResult R = solveChecked<TaintResult>(*F, runTaintAnalysis);

  // The parameter p taints the branch predicate, but the arithmetic on
  // immediates stays clean all the way to the return.
  EXPECT_TRUE(R.useValue(instrAt(*F, "entry", 0), 0).isTainted());
  EXPECT_FALSE(R.useValue(instrAt(*F, "join", 0), 0).isTainted());
  EXPECT_FALSE(R.useValue(instrAt(*F, "join", 1), 0).isTainted());
  EXPECT_EQ(R.numTaintedVarUses(), 1u);
  EXPECT_EQ(R.numTaintedSinkUses(), 0u);
}

TEST(SparseEngineTaint, NoSourcesMeansEverythingCleanButAllPathsLive) {
  auto F = parseFunctionOrDie(Fig3bSrc);
  TaintResult R = solveChecked<TaintResult>(*F, runTaintAnalysis);

  // No parameters and no read(): nothing can be tainted.
  EXPECT_EQ(R.numTaintedVarUses(), 0u);
  EXPECT_EQ(R.numTaintedSinkUses(), 0u);

  // Unlike range, taint never prunes branches (a clean predicate may take
  // either arm), so even fig3b's dead else-arm is executable here.
  for (unsigned B = 0; B != F->numBlocks(); ++B)
    EXPECT_TRUE(R.ExecutableBlock[B]) << "block " << B;
}

TEST(SparseEngineTaint, ReadFlowsToTheSink) {
  auto F = parseFunctionOrDie(R"(
func sink(p) {
entry:
  a = read()
  b = 5
  c = a + 1
  ret b, c
}
)");
  TaintResult R = solveChecked<TaintResult>(*F, runTaintAnalysis);

  // read() is a source; the taint rides the addition into the second
  // returned value while the immediate-only first stays clean.
  const Instruction *Ret = instrAt(*F, "entry", 3);
  EXPECT_FALSE(R.useValue(Ret, 0).isTainted());
  EXPECT_TRUE(R.useValue(Ret, 1).isTainted());
  EXPECT_EQ(R.numTaintedSinkUses(), 1u);
  // Tainted var uses: a in the addition, c at the return.
  EXPECT_EQ(R.numTaintedVarUses(), 2u);
}

//===----------------------------------------------------------------------===//
// Null/undef-use client
//===----------------------------------------------------------------------===//

TEST(SparseEngineNullUse, OneArmedDefinitionIsFlagged) {
  auto F = parseFunctionOrDie(MaybeInitSrc);
  NullUseResult R = solveChecked<NullUseResult>(*F, runNullUseAnalysis);

  // x is assigned on the a-arm only; through b the entry value survives,
  // so the use at the join is may-uninit (but also may-init).
  InitVal XUse = R.useValue(instrAt(*F, "join", 0), 0);
  EXPECT_TRUE(XUse.mayBeUninit());
  EXPECT_TRUE(XUse.mayBeInit());

  // y's definition executes on every path, so the returned use is proven.
  InitVal Ret = R.useValue(instrAt(*F, "join", 1), 0);
  EXPECT_TRUE(Ret.mayBeInit());
  EXPECT_FALSE(Ret.mayBeUninit());

  // Proven-init uses: the branch's p (a parameter) and the ret's y.
  EXPECT_EQ(R.numMaybeUninitVarUses(), 1u);
  EXPECT_EQ(R.numDefinitelyInitVarUses(), 2u);
}

TEST(SparseEngineNullUse, EveryPathDefinesMeansNothingFlagged) {
  auto F = parseFunctionOrDie(Fig3bSrc);
  NullUseResult R = solveChecked<NullUseResult>(*F, runNullUseAnalysis);
  EXPECT_EQ(R.numMaybeUninitVarUses(), 0u);
  EXPECT_EQ(R.numDefinitelyInitVarUses(), 3u);
}

//===----------------------------------------------------------------------===//
// Engine API failure convention
//===----------------------------------------------------------------------===//

TEST(SparseEngineStatus, SparseModeWithoutGraphIsAnError) {
  auto F = parseFunctionOrDie(Fig3bSrc);
  RangeResult Range;
  EXPECT_FALSE(runRangeAnalysis(*F, nullptr, EvalMode::SparseDFG, Range).ok());
  TaintResult Taint;
  EXPECT_FALSE(runTaintAnalysis(*F, nullptr, EvalMode::SparseDFG, Taint).ok());
  NullUseResult Null;
  EXPECT_FALSE(
      runNullUseAnalysis(*F, nullptr, EvalMode::SparseDFG, Null).ok());
}

} // namespace
