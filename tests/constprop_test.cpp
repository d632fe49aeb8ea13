//===- tests/constprop_test.cpp - Constant propagation tests --------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
// Pins the paper's Figure 1 and Figure 3 examples and property-tests the
// Section 4 claim: the DFG algorithm finds exactly the constants the CFG
// algorithm finds (all-paths AND possible-paths), while def-use chains
// find only all-paths constants. Soundness is established against the
// reference interpreter.
//
//===----------------------------------------------------------------------===//

#include "dataflow/ConstantPropagation.h"
#include "interp/Interpreter.h"
#include "ParseOrDie.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Transforms.h"
#include "ir/Verifier.h"
#include "dataflow/DefUse.h"
#include "verify/Oracles.h"
#include "workload/Generators.h"

#include <gtest/gtest.h>

#include <memory>

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

/// The library's sparse/dense comparator must accept \p Sparse against
/// \p Dense (executability and every variable operand).
void expectModesAgree(Function &F, const ConstPropResult &Sparse,
                      const ConstPropResult &Dense, const char *Ctx) {
  Status S = compareEvalModes(F, Sparse, Dense, Ctx);
  EXPECT_TRUE(S.ok()) << S.str() << "\n" << printFunction(F);
}

TEST(ConstProp, Figure3aAllPathsConstants) {
  // Both arms compute x = 3 through different routes; even def-use chains
  // find it (the paper's Figure 3a).
  auto F = parseFunctionOrDie(R"(
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
)");
  const Instruction *YDef = instrAt(*F, "join", 0);
  ReachingDefs RD(*F);
  ConstPropResult DU = defUseConstantPropagation(*F, RD);
  ConstPropResult CFG;
  ASSERT_TRUE(
      runConstantPropagation(*F, nullptr, EvalMode::DenseCFG, CFG).ok());
  DepFlowGraph G = DepFlowGraph::build(*F);
  ConstPropResult DFG;
  ASSERT_TRUE(runConstantPropagation(*F, &G, EvalMode::SparseDFG, DFG).ok());
  for (const ConstPropResult *R : {&DU, &CFG, &DFG}) {
    ASSERT_TRUE(R->useValue(YDef, 0).isConst());
    EXPECT_EQ(R->useValue(YDef, 0).value(), 3);
  }
}

TEST(ConstProp, Figure3bPossiblePathsConstants) {
  // p is the constant true, so the else side is dead: y = 1. Def-use
  // chains miss this; the CFG and DFG algorithms find it (Figure 3b).
  auto F = parseFunctionOrDie(R"(
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
)");
  const Instruction *YDef = instrAt(*F, "join", 0);
  ReachingDefs RD(*F);
  ConstPropResult DU = defUseConstantPropagation(*F, RD);
  EXPECT_TRUE(DU.useValue(YDef, 0).isTop()) << "def-use cannot see deadness";

  ConstPropResult CFG;
  ASSERT_TRUE(
      runConstantPropagation(*F, nullptr, EvalMode::DenseCFG, CFG).ok());
  ASSERT_TRUE(CFG.useValue(YDef, 0).isConst());
  EXPECT_EQ(CFG.useValue(YDef, 0).value(), 1);
  EXPECT_FALSE(CFG.ExecutableBlock[2]) << "else arm is dead";

  DepFlowGraph G = DepFlowGraph::build(*F);
  ConstPropResult DFG;
  ASSERT_TRUE(runConstantPropagation(*F, &G, EvalMode::SparseDFG, DFG).ok());
  ASSERT_TRUE(DFG.useValue(YDef, 0).isConst());
  EXPECT_EQ(DFG.useValue(YDef, 0).value(), 1);
  EXPECT_EQ(DFG.ExecutableBlock, CFG.ExecutableBlock);
}

TEST(ConstProp, Figure1FindsTheBranchConstantAndY) {
  // Figure 1/Section 2.2: the branch predicate x is 1, so only the then
  // side runs; y's final use is the constant 3 (possible-paths), which the
  // def-use algorithm cannot determine.
  auto F = parseFunctionOrDie(R"(
func fig1() {
entry:
  x = 1
  if x goto thn else els
thn:
  y = 2
  goto join
els:
  y = 3
  goto join
join:
  y = y + 1
  ret y
}
)");
  const Instruction *YInc = instrAt(*F, "join", 0);
  const Instruction *Branch = F->entry()->terminator();

  ReachingDefs RD(*F);
  ConstPropResult DU = defUseConstantPropagation(*F, RD);
  ASSERT_TRUE(DU.useValue(Branch, 0).isConst());
  EXPECT_EQ(DU.useValue(Branch, 0).value(), 1);
  EXPECT_TRUE(DU.useValue(YInc, 0).isTop());

  ConstPropResult CFG;
  ASSERT_TRUE(
      runConstantPropagation(*F, nullptr, EvalMode::DenseCFG, CFG).ok());
  DepFlowGraph G = DepFlowGraph::build(*F);
  ConstPropResult DFG;
  ASSERT_TRUE(runConstantPropagation(*F, &G, EvalMode::SparseDFG, DFG).ok());
  for (const ConstPropResult *R : {&CFG, &DFG}) {
    ASSERT_TRUE(R->useValue(YInc, 0).isConst());
    EXPECT_EQ(R->useValue(YInc, 0).value(), 2);
  }
}

TEST(ConstProp, LoopInvariantConstant) {
  auto F = parseFunctionOrDie(R"(
func f(n) {
entry:
  k = 7
  goto head
head:
  t = n > 0
  if t goto body else out
body:
  s = s + k
  n = n - 1
  goto head
out:
  ret s, k
}
)");
  const Instruction *SDef = instrAt(*F, "body", 0);
  ConstPropResult CFG;
  ASSERT_TRUE(
      runConstantPropagation(*F, nullptr, EvalMode::DenseCFG, CFG).ok());
  DepFlowGraph G = DepFlowGraph::build(*F);
  ConstPropResult DFG;
  ASSERT_TRUE(runConstantPropagation(*F, &G, EvalMode::SparseDFG, DFG).ok());
  for (const ConstPropResult *R : {&CFG, &DFG}) {
    EXPECT_TRUE(R->useValue(SDef, 0).isTop()) << "s varies";
    ASSERT_TRUE(R->useValue(SDef, 1).isConst());
    EXPECT_EQ(R->useValue(SDef, 1).value(), 7);
  }
}

TEST(ConstProp, SparseAndDenseEnginesAgreeOnTheFigures) {
  // The one engine entry point must compute identical results in both
  // evaluation modes: per-use values and block executability.
  const char *Fixtures[] = {
      R"(
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
)",
      R"(
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
)"};
  for (const char *Src : Fixtures) {
    auto F = parseFunctionOrDie(Src);
    DepFlowGraph G = DepFlowGraph::build(*F);

    ConstPropResult EngCFG;
    ASSERT_TRUE(
        runConstantPropagation(*F, nullptr, EvalMode::DenseCFG, EngCFG).ok());
    ConstPropResult EngDFG;
    ASSERT_TRUE(
        runConstantPropagation(*F, &G, EvalMode::SparseDFG, EngDFG).ok());
    expectModesAgree(*F, EngDFG, EngCFG, "engine");
  }
}

class ConstPropPropertyTest : public ::testing::TestWithParam<int> {};

std::unique_ptr<Function> makeProgram(int Param, bool Separate) {
  std::unique_ptr<Function> F;
  if (Param % 2 == 0) {
    GenOptions Opts;
    Opts.Seed = std::uint64_t(Param);
    Opts.TargetStmts = 26;
    Opts.NumVars = 5;
    F = generateStructuredProgram(Opts);
  } else {
    F = generateRandomCFGProgram(std::uint64_t(Param) * 31 + 7, 12, 50, 5, 2);
  }
  if (Separate)
    separateComputation(*F);
  return F;
}

TEST_P(ConstPropPropertyTest, DFGMatchesCFGExactly) {
  auto F = makeProgram(GetParam(), /*Separate=*/false);
  ConstPropResult CFG;
  ASSERT_TRUE(
      runConstantPropagation(*F, nullptr, EvalMode::DenseCFG, CFG).ok());
  DepFlowGraph G = DepFlowGraph::build(*F);
  ConstPropResult DFG;
  ASSERT_TRUE(runConstantPropagation(*F, &G, EvalMode::SparseDFG, DFG).ok());
  expectModesAgree(*F, DFG, CFG, "dfg");
}

TEST_P(ConstPropPropertyTest, DFGMatchesCFGOnSeparatedPrograms) {
  auto F = makeProgram(GetParam(), /*Separate=*/true);
  ConstPropResult CFG;
  ASSERT_TRUE(
      runConstantPropagation(*F, nullptr, EvalMode::DenseCFG, CFG).ok());
  DepFlowGraph G = DepFlowGraph::build(*F);
  ConstPropResult DFG;
  ASSERT_TRUE(runConstantPropagation(*F, &G, EvalMode::SparseDFG, DFG).ok());
  expectModesAgree(*F, DFG, CFG, "dfg/sep");
}

TEST_P(ConstPropPropertyTest, BypassModeDoesNotChangeResults) {
  auto F = makeProgram(GetParam(), /*Separate=*/true);
  DepFlowGraph Full = DepFlowGraph::build(*F, DepFlowGraph::BypassMode::SESE);
  DepFlowGraph Base = DepFlowGraph::build(*F, DepFlowGraph::BypassMode::None);
  ConstPropResult A;
  ASSERT_TRUE(runConstantPropagation(*F, &Full, EvalMode::SparseDFG, A).ok());
  ConstPropResult B;
  ASSERT_TRUE(runConstantPropagation(*F, &Base, EvalMode::SparseDFG, B).ok());
  expectModesAgree(*F, A, B, "bypass vs nobypass");
}

TEST_P(ConstPropPropertyTest, DefUseIsNoBetterThanCFG) {
  auto F = makeProgram(GetParam(), /*Separate=*/false);
  ReachingDefs RD(*F);
  ConstPropResult DU = defUseConstantPropagation(*F, RD);
  ConstPropResult CFG;
  ASSERT_TRUE(
      runConstantPropagation(*F, nullptr, EvalMode::DenseCFG, CFG).ok());
  for (const auto &BB : F->blocks()) {
    for (const auto &IPtr : BB->instructions()) {
      const Instruction *I = IPtr.get();
      for (unsigned Idx = 0; Idx != I->numOperands(); ++Idx) {
        ConstVal VDU = DU.useValue(I, Idx);
        ConstVal VCFG = CFG.useValue(I, Idx);
        if (VDU.isConst() && !VCFG.isBot()) {
          ASSERT_TRUE(VCFG.isConst())
              << printInstruction(*F, *I) << "\n" << printFunction(*F);
          EXPECT_EQ(VCFG.value(), VDU.value());
        }
      }
    }
  }
}

TEST_P(ConstPropPropertyTest, ApplyingConstantsPreservesSemantics) {
  auto F = makeProgram(GetParam(), /*Separate=*/false);
  auto Clone = parseFunctionOrDie(printFunction(*F));

  DepFlowGraph G = DepFlowGraph::build(*Clone);
  ConstPropResult CP;
  ASSERT_TRUE(runConstantPropagation(*Clone, &G, EvalMode::SparseDFG, CP).ok());
  applyConstantsAndDCE(*Clone, CP);
  ASSERT_TRUE(isWellFormed(*Clone)) << printFunction(*Clone);

  RNG Rand(std::uint64_t(GetParam()) * 99 + 5);
  Status S = diffExecutions(*F, *Clone, Rand);
  EXPECT_TRUE(S.ok()) << S.str();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConstPropPropertyTest,
                         ::testing::Range(0, 40));

// Section 4's Multiflow extension: `if (x == 1)` lets both the CFG and
// DFG algorithms propagate x = 1 into the true side even though x itself
// is unknown.
// useValue takes an instruction's row from its block's first row plus its
// position there, and answers only for the solved function's
// instructions: in both modes every operand agrees with the canonical row
// walk, while the instructions of a twin function (same block ids and
// positions) and an instruction inserted after the solve read ⊥.
TEST_P(ConstPropPropertyTest, UseValueAnswersOnlyForTheSolvedFunction) {
  auto F = makeProgram(GetParam(), /*Separate=*/false);
  auto Twin = makeProgram(GetParam(), /*Separate=*/false);
  ASSERT_EQ(printFunction(*F), printFunction(*Twin));
  DepFlowGraph G = DepFlowGraph::build(*F);
  ConstPropResult Results[2];
  ASSERT_TRUE(
      runConstantPropagation(*F, &G, EvalMode::SparseDFG, Results[0]).ok());
  ASSERT_TRUE(
      runConstantPropagation(*F, nullptr, EvalMode::DenseCFG, Results[1])
          .ok());
  for (const ConstPropResult &R : Results) {
    std::uint32_t Row = 0;
    unsigned Answered = 0;
    for (unsigned B = 0; B != F->numBlocks(); ++B)
      for (unsigned K = 0; K != F->block(B)->size(); ++K, ++Row) {
        const Instruction *I = F->block(B)->instructions()[K].get();
        const Instruction *TwinI = Twin->block(B)->instructions()[K].get();
        for (unsigned Op = 0; Op != I->numOperands(); ++Op) {
          EXPECT_TRUE(ConstVal::equal(R.useValue(I, Op), R.row(Row)[Op]));
          EXPECT_TRUE(R.useValue(TwinI, Op).isBot());
          Answered += !R.row(Row)[Op].isBot();
        }
        EXPECT_TRUE(R.useValue(I, I->numOperands()).isBot());
      }
    EXPECT_EQ(Row, R.size());
    EXPECT_GT(Answered, 0u);
  }

  const Instruction *New = F->entry()->insertAt(
      0, std::make_unique<CopyInst>(VarId(0), Operand::var(VarId(0))));
  for (const ConstPropResult &R : Results)
    EXPECT_TRUE(R.useValue(New, 0).isBot());
}

TEST(ConstProp, PredicateRefinementFindsMoreConstants) {
  auto F = parseFunctionOrDie(R"(
func pred(x) {
entry:
  t = x == 1
  if t goto hit else miss
hit:
  y = x + 10
  goto out
miss:
  y = 0
  goto out
out:
  ret y
}
)");
  const Instruction *YDef = instrAt(*F, "hit", 0);

  ConstPropResult Plain;
  ASSERT_TRUE(
      runConstantPropagation(*F, nullptr, EvalMode::DenseCFG, Plain).ok());
  EXPECT_TRUE(Plain.useValue(YDef, 0).isTop());

  ConstPropResult Refined;
  ASSERT_TRUE(runConstantPropagation(*F, nullptr, EvalMode::DenseCFG, Refined,
                                     /*PredicateRefinement=*/true)
                  .ok());
  ASSERT_TRUE(Refined.useValue(YDef, 0).isConst());
  EXPECT_EQ(Refined.useValue(YDef, 0).value(), 1);

  DepFlowGraph G = DepFlowGraph::build(*F);
  ConstPropResult DFGRefined;
  ASSERT_TRUE(runConstantPropagation(*F, &G, EvalMode::SparseDFG, DFGRefined,
                                     /*PredicateRefinement=*/true)
                  .ok());
  ASSERT_TRUE(DFGRefined.useValue(YDef, 0).isConst());
  EXPECT_EQ(DFGRefined.useValue(YDef, 0).value(), 1);
}

TEST(ConstProp, PredicateRefinementHandlesNe) {
  auto F = parseFunctionOrDie(R"(
func predne(x) {
entry:
  t = x != 3
  if t goto other else eq3
other:
  y = 0
  goto out
eq3:
  y = x * 2
  goto out
out:
  ret y
}
)");
  const Instruction *YDef = instrAt(*F, "eq3", 0);
  ConstPropResult Refined;
  ASSERT_TRUE(runConstantPropagation(*F, nullptr, EvalMode::DenseCFG, Refined,
                                     /*PredicateRefinement=*/true)
                  .ok());
  ASSERT_TRUE(Refined.useValue(YDef, 0).isConst());
  EXPECT_EQ(Refined.useValue(YDef, 0).value(), 3);
  DepFlowGraph G = DepFlowGraph::build(*F);
  ConstPropResult DFGRefined;
  ASSERT_TRUE(runConstantPropagation(*F, &G, EvalMode::SparseDFG, DFGRefined,
                                     /*PredicateRefinement=*/true)
                  .ok());
  EXPECT_EQ(DFGRefined.useValue(YDef, 0).str(),
            Refined.useValue(YDef, 0).str());
}

TEST_P(ConstPropPropertyTest, RefinementKeepsCFGAndDFGEqual) {
  auto F = makeProgram(GetParam(), /*Separate=*/false);
  ConstPropResult CFG;
  ASSERT_TRUE(
      runConstantPropagation(*F, nullptr, EvalMode::DenseCFG, CFG, true).ok());
  DepFlowGraph G = DepFlowGraph::build(*F);
  ConstPropResult DFG;
  ASSERT_TRUE(
      runConstantPropagation(*F, &G, EvalMode::SparseDFG, DFG, true).ok());
  expectModesAgree(*F, DFG, CFG, "dfg+ref");
}

TEST_P(ConstPropPropertyTest, RefinementIsSoundAndMonotone) {
  auto F = makeProgram(GetParam() + 500, /*Separate=*/false);
  ConstPropResult Plain;
  ASSERT_TRUE(
      runConstantPropagation(*F, nullptr, EvalMode::DenseCFG, Plain).ok());
  ConstPropResult Refined;
  ASSERT_TRUE(runConstantPropagation(*F, nullptr, EvalMode::DenseCFG, Refined,
                                     true)
                  .ok());
  // Anything constant without refinement stays the same constant with it.
  for (const auto &BB : F->blocks())
    for (const auto &IPtr : BB->instructions())
      for (unsigned Idx = 0; Idx != IPtr->numOperands(); ++Idx) {
        ConstVal P = Plain.useValue(IPtr.get(), Idx);
        ConstVal R = Refined.useValue(IPtr.get(), Idx);
        if (P.isConst() && R.isConst())
          EXPECT_EQ(P.value(), R.value());
      }
  // And applying the refined result preserves semantics.
  auto Clone = parseFunctionOrDie(printFunction(*F));
  DepFlowGraph G = DepFlowGraph::build(*Clone);
  ConstPropResult CP;
  ASSERT_TRUE(
      runConstantPropagation(*Clone, &G, EvalMode::SparseDFG, CP, true).ok());
  applyConstantsAndDCE(*Clone, CP);
  ASSERT_TRUE(isWellFormed(*Clone));
  RNG Rand(std::uint64_t(GetParam()) * 17 + 9);
  Status S = diffExecutions(*F, *Clone, Rand);
  EXPECT_TRUE(S.ok()) << S.str();
}

} // namespace
