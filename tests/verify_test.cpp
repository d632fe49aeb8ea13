//===- tests/verify_test.cpp - Pass verifiers and the diff oracle ---------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
// Tests for src/verify/: the invariant checkers must accept everything the
// real passes produce, reject hand-made violations with useful diagnostics,
// and the differential and client oracles must notice a seeded miscompile
// or a planted analysis error.
//
//===----------------------------------------------------------------------===//

#include "ParseOrDie.h"
#include "core/DepFlowGraph.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "pass/PassPipeline.h"
#include "support/Error.h"
#include "verify/Oracles.h"
#include "verify/PassVerifier.h"
#include "workload/Generators.h"

#include <gtest/gtest.h>

using namespace depflow;

namespace {

/// Single-shot checked pass run with a throwaway manager — these tests
/// exercise each pass in isolation, so there is no cache to share.
Status runPassFresh(Function &F, PassId P) {
  FunctionAnalysisManager AM(F);
  return runPass(F, P, AM);
}

/// Clones \p In into \p Out, runs \p P on the clone and checks the pass's
/// report of what it changed.
Status runReported(const Function &In, PassId P,
                   std::unique_ptr<Function> &Out) {
  Status S = cloneFunction(In, Out);
  if (!S.ok())
    return S;
  FunctionAnalysisManager AM(*Out);
  PreservedAnalyses PA;
  S = runPass(*Out, P, AM, {}, &PA);
  return S.ok() ? checkReportedChange(In, *Out, P, PA) : S;
}

/// The fuzzer's checked pipeline without its mutation: run \p P on a clone
/// of \p F and hand both to the library's per-pass check. A pass that
/// keeps base IR also runs a second time on its own output, so that its
/// no-change path meets the report check too.
Status checkPassOn(const Function &F, PassId P, std::uint64_t Seed) {
  std::unique_ptr<Function> T, Again;
  Status S = runReported(F, P, T);
  if (S.ok() && !passProducesSSA(P))
    S = runReported(*T, P, Again);
  return S.ok() ? checkPassOutput(F, *T, P, Seed) : S;
}

const char *DiamondSrc = R"(
func main(a) {
entry:
  x = a + 1
  if a goto then else els
then:
  y = x + 1
  goto join
els:
  y = x - 1
  goto join
join:
  z = y * 2
  ret z
}
)";

//===----------------------------------------------------------------------===//
// Status
//===----------------------------------------------------------------------===//

TEST(Status, AccumulatesAndRenders) {
  Status S;
  EXPECT_TRUE(S.ok());
  S.addError("first");
  S.addError("second", 7);
  EXPECT_FALSE(S.ok());
  EXPECT_EQ(S.numErrors(), 2u);
  EXPECT_NE(S.str().find("first"), std::string::npos);
  EXPECT_NE(S.str().find("line 7"), std::string::npos);

  Status T = Status::success();
  T.append(S, "while testing");
  EXPECT_EQ(T.numErrors(), 2u);
  EXPECT_NE(T.str().find("while testing"), std::string::npos);

  Status U = Status::fromMessages({"a", "b", "c"});
  EXPECT_EQ(U.numErrors(), 3u);
}

//===----------------------------------------------------------------------===//
// Def-use hygiene (ir/Verifier extension)
//===----------------------------------------------------------------------===//

TEST(Hygiene, FlagsNeverAssignedAndMaybeUnassigned) {
  const char *Src = R"(
func f(p) {
entry:
  a = never + 1
  if p goto t else j
t:
  b = 1
  goto j
j:
  c = b + p
  ret c
}
)";
  auto F = parseFunctionOrDie(Src);
  ASSERT_TRUE(verifyFunction(*F).empty());
  std::vector<std::string> W = verifyDefUseHygiene(*F);
  bool SawNever = false, SawMaybe = false;
  for (const std::string &Msg : W) {
    if (Msg.find("'never'") != std::string::npos)
      SawNever = true;
    if (Msg.find("'b'") != std::string::npos)
      SawMaybe = true;
    // Parameters are inputs, never hygiene findings.
    EXPECT_EQ(Msg.find("'p'"), std::string::npos) << Msg;
  }
  EXPECT_TRUE(SawNever);
  EXPECT_TRUE(SawMaybe);
}

TEST(Hygiene, CleanProgramHasNoWarnings) {
  auto F = parseFunctionOrDie(DiamondSrc);
  EXPECT_TRUE(verifyDefUseHygiene(*F).empty());
}

//===----------------------------------------------------------------------===//
// SSA form checker
//===----------------------------------------------------------------------===//

TEST(SSAForm, AcceptsBothConstructionRoutes) {
  for (PassId P : {PassId::SSA, PassId::SSADfg}) {
    auto F = parseFunctionOrDie(DiamondSrc);
    ASSERT_TRUE(runPassFresh(*F, P).ok());
    Status S = verifySSAForm(*F);
    EXPECT_TRUE(S.ok()) << S.str();
  }
}

TEST(SSAForm, RejectsDoubleDefinition) {
  const char *Src = R"(
func f() {
b:
  x = 1
  x = 2
  ret x
}
)";
  auto F = parseFunctionOrDie(Src);
  Status S = verifySSAForm(*F);
  ASSERT_FALSE(S.ok());
  EXPECT_NE(S.str().find("more than one static definition"),
            std::string::npos)
      << S.str();
}

TEST(SSAForm, RejectsUseNotDominatedByDef) {
  const char *Src = R"(
func f(p) {
entry:
  if p goto t else j
t:
  x = 1
  goto j
j:
  y = x + 1
  ret y
}
)";
  auto F = parseFunctionOrDie(Src);
  Status S = verifySSAForm(*F);
  ASSERT_FALSE(S.ok());
  EXPECT_NE(S.str().find("dominate"), std::string::npos) << S.str();
}

TEST(SSAForm, RejectsDeadPhiAsUnpruned) {
  const char *Src = R"(
func f(p) {
entry:
  if p goto t else e
t:
  goto j
e:
  goto j
j:
  dead = phi(t: 1, e: 2)
  ret p
}
)";
  auto F = parseFunctionOrDie(Src);
  Status S = verifySSAForm(*F);
  ASSERT_FALSE(S.ok());
  EXPECT_NE(S.str().find("prune"), std::string::npos) << S.str();
}

//===----------------------------------------------------------------------===//
// DFG well-formedness and structure cross-checks
//===----------------------------------------------------------------------===//

TEST(DFG, WellFormedOnGeneratedPrograms) {
  for (std::uint64_t Seed = 1; Seed <= 10; ++Seed) {
    GenOptions G;
    G.Seed = Seed;
    G.TargetStmts = 25;
    auto F = generateStructuredProgram(G);
    Status S = verifyDFGWellFormed(*F);
    EXPECT_TRUE(S.ok()) << "seed " << Seed << ": " << S.str();
  }
}

TEST(DFG, RefusesPhiInput) {
  auto F = parseFunctionOrDie(DiamondSrc);
  ASSERT_TRUE(runPassFresh(*F, PassId::SSA).ok());
  EXPECT_FALSE(verifyDFGWellFormed(*F).ok());
}

TEST(CrossCheck, FastStructureMatchesBruteForce) {
  for (std::uint64_t Seed = 1; Seed <= 6; ++Seed) {
    auto F = generateRandomCFGProgram(Seed, 10, 40, 4, 1);
    Status CE = crossCheckCycleEquivalence(*F);
    EXPECT_TRUE(CE.ok()) << "seed " << Seed << ": " << CE.str();
    Status CD = crossCheckControlDependence(*F);
    EXPECT_TRUE(CD.ok()) << "seed " << Seed << ": " << CD.str();
  }
}

//===----------------------------------------------------------------------===//
// Pass runner
//===----------------------------------------------------------------------===//

TEST(CheckedRunPass, NamesRoundTrip) {
  for (PassId P : allPasses()) {
    auto Back = passByName(passName(P));
    ASSERT_TRUE(Back.has_value());
    EXPECT_EQ(*Back, P);
  }
  EXPECT_FALSE(passByName("no-such-pass").has_value());
}

TEST(CheckedRunPass, RejectsPhiInputWithoutCrashing) {
  auto F = parseFunctionOrDie(DiamondSrc);
  ASSERT_TRUE(runPassFresh(*F, PassId::SSA).ok());
  std::string Before = printFunction(*F);
  Status S = runPassFresh(*F, PassId::ConstProp);
  ASSERT_FALSE(S.ok());
  EXPECT_NE(S.str().find("phi"), std::string::npos) << S.str();
  // Precondition failures leave the function untouched.
  EXPECT_EQ(printFunction(*F), Before);
}

TEST(CheckedRunPass, CloneRoundTripsExactly) {
  auto F = parseFunctionOrDie(DiamondSrc);
  std::unique_ptr<Function> Clone;
  ASSERT_TRUE(cloneFunction(*F, Clone).ok());
  EXPECT_EQ(printFunction(*F), printFunction(*Clone));
}

//===----------------------------------------------------------------------===//
// Differential oracle
//===----------------------------------------------------------------------===//

TEST(DiffOracle, IdenticalProgramsAgree) {
  auto F = parseFunctionOrDie(DiamondSrc);
  std::unique_ptr<Function> Clone;
  ASSERT_TRUE(cloneFunction(*F, Clone).ok());
  RNG Rand(42);
  Status S = diffExecutions(*F, *Clone, Rand);
  EXPECT_TRUE(S.ok()) << S.str();
}

TEST(DiffOracle, CatchesSeededMiscompile) {
  auto F = parseFunctionOrDie(DiamondSrc);
  // "Miscompile": y = x + 1 on the then-path becomes y = x + 2.
  auto Bad = parseFunctionOrDie(DiamondSrc);
  Bad->block(1)->instructions()[0]->setOperand(1, Operand::imm(2));
  RNG Rand(42);
  Status S = diffExecutions(*F, *Bad, Rand);
  ASSERT_FALSE(S.ok());
  EXPECT_NE(S.str().find("output mismatch"), std::string::npos) << S.str();
  // The report embeds the witness inputs and both programs.
  EXPECT_NE(S.str().find("inputs"), std::string::npos);
  EXPECT_NE(S.str().find("transformed:"), std::string::npos);
}

TEST(DiffOracle, CatchesTransformedNonTermination) {
  auto F = parseFunctionOrDie("func f() {\nb:\n  ret\n}\n");
  auto Spin = parseFunctionOrDie(
      "func f() {\nb:\n  goto b\nc:\n  ret\n}\n");
  OracleOptions OO;
  OO.MaxSteps = 200;
  Status S = diffOneExecution(*F, *Spin, {}, OO);
  ASSERT_FALSE(S.ok());
  EXPECT_NE(S.str().find("fails to halt"), std::string::npos) << S.str();
}

TEST(DiffOracle, FlagsAddedComputations) {
  auto F = parseFunctionOrDie("func f(p) {\nb:\n  ret p\n}\n");
  auto More = parseFunctionOrDie("func f(p) {\nb:\n  t = p + p\n  ret p\n}\n");
  std::vector<Expression> Watched = preWatchedExpressions(*More);
  ASSERT_EQ(Watched.size(), 1u);
  OracleOptions OO;
  OO.NoNewComputationsOf = &Watched;
  Status S = diffOneExecution(*F, *More, {3}, OO);
  ASSERT_FALSE(S.ok());
  EXPECT_NE(S.str().find("added a computation"), std::string::npos) << S.str();
}

TEST(DiffOracle, PREPassNeverAddsComputations) {
  for (std::uint64_t Seed = 1; Seed <= 8; ++Seed) {
    GenOptions G;
    G.Seed = Seed;
    G.TargetStmts = 20;
    auto F = generateStructuredProgram(G);
    // checkPassOutput watches every PRE candidate for added computations.
    Status S = checkPassOn(*F, PassId::PRE, Seed);
    EXPECT_TRUE(S.ok()) << "seed " << Seed << ": " << S.str();
  }
}

//===----------------------------------------------------------------------===//
// Client oracles: each must reject what it exists to catch.
//===----------------------------------------------------------------------===//

const char *IncSrc = "func f(p) {\nb:\n  x = p + 1\n  ret x\n}\n";

RangeResult denseRange(Function &F) {
  RangeResult R;
  EXPECT_TRUE(runRangeAnalysis(F, nullptr, EvalMode::DenseCFG, R).ok());
  return R;
}

TEST(ClientOracles, ComparatorRejectsPlantedDisagreement) {
  auto F = parseFunctionOrDie(IncSrc);
  DepFlowGraph G = DepFlowGraph::build(*F);
  RangeResult Sparse;
  ASSERT_TRUE(runRangeAnalysis(*F, &G, EvalMode::SparseDFG, Sparse).ok());
  RangeResult Dense = denseRange(*F);
  Status S = compareEvalModes(*F, Sparse, Dense, "range");
  ASSERT_TRUE(S.ok()) << S.str();
  Sparse.row(1)[0] = IntervalVal::point(42); // The ret's x.
  S = compareEvalModes(*F, Sparse, Dense, "range");
  ASSERT_FALSE(S.ok());
  EXPECT_NE(S.str().find("!= dense-CFG value"), std::string::npos) << S.str();
}

/// Compares the dense range solution of \p Src against a copy whose ret
/// operand is widened the way a termination-optimistic bypass widens it.
Status compareWidenedRet(const std::string &Src) {
  auto F = parseFunctionOrDie(Src);
  RangeResult Dense = denseRange(*F), Widened = denseRange(*F);
  IntervalVal &Ret = Widened.row(Widened.size() - 1)[0];
  Ret = Ret.meet(IntervalVal::point(1000));
  return compareEvalModes(*F, Widened, Dense, "range");
}

TEST(ClientOracles, ComparatorAllowsWideningOnlyPastProvenDivergence) {
  // With c = 1 the dense solution proves the loop never exits; with c = 0
  // it exits, and the same widening is a plain disagreement.
  auto Spin = [](const char *C) {
    return std::string("func f(p) {\nentry:\n  x = 1\n"
                       "  if p goto loop else out\nloop:\n  x = 2\n"
                       "  c = ") +
           C + "\n  if c goto loop else out\nout:\n  ret x\n}\n";
  };
  Status Divergent = compareWidenedRet(Spin("1"));
  EXPECT_TRUE(Divergent.ok()) << Divergent.str();
  Status Terminating = compareWidenedRet(Spin("0"));
  ASSERT_FALSE(Terminating.ok());
  EXPECT_NE(Terminating.str().find("!= dense-CFG value"), std::string::npos)
      << Terminating.str();
}

TEST(ClientOracles, RangeOutputCheckFlagsEscapedOutput) {
  auto F = parseFunctionOrDie(IncSrc);
  RangeResult R = denseRange(*F);
  RNG Rand(1);
  Status S = checkRangeContainsOutputs(*F, R, Rand);
  ASSERT_TRUE(S.ok()) << S.str();
  R.row(1)[0] = IntervalVal::point(1000); // p + 1 never returns 1000.
  S = checkRangeContainsOutputs(*F, R, Rand);
  ASSERT_FALSE(S.ok());
  EXPECT_NE(S.str().find("falls outside the computed interval"),
            std::string::npos)
      << S.str();
}

//===----------------------------------------------------------------------===//
// End-to-end mini sweep: every pass on every family, all checks on.
//===----------------------------------------------------------------------===//

TEST(EndToEnd, AllPassesOnAllFamilies) {
  std::vector<std::unique_ptr<Function>> Programs;
  Programs.push_back(parseFunctionOrDie(DiamondSrc));
  GenOptions G;
  G.Seed = 3;
  Programs.push_back(generateStructuredProgram(G));
  Programs.push_back(generateRandomCFGProgram(3, 8, 30, 4, 2));
  Programs.push_back(generateDiamondChain(3, 4, 3));
  Programs.push_back(generateNestedLoops(2, 1, 4, 3));
  Programs.push_back(generateRepeatUntilChain(2, 4, 3));
  Programs.push_back(generateLadder(5, 4, 3));
  for (const auto &F : Programs)
    for (PassId P : allPasses()) {
      Status S = checkPassOn(*F, P, 7);
      EXPECT_TRUE(S.ok()) << passName(P) << ": " << S.str();
    }
}

} // namespace
