//===- tests/ssa_test.cpp - SSA construction and SCCP tests ---------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
// Validates the paper's Section 3.3 claim: the DFG, with switches elided
// and merges converted to φs, yields (pruned) SSA form — compared against
// the Cytron et al. dominance-frontier construction — and that SCCP on the
// result finds exactly the constants the CFG/DFG algorithms find.
//
//===----------------------------------------------------------------------===//

#include "dataflow/ConstantPropagation.h"
#include "interp/Interpreter.h"
#include "ParseOrDie.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "ssa/SCCP.h"
#include "ssa/SSA.h"
#include "verify/DiffOracle.h"
#include "workload/Generators.h"

#include <gtest/gtest.h>

using namespace depflow;

namespace {

std::string placementToString(const Function &F, const PhiPlacement &P) {
  std::string S;
  for (unsigned B = 0; B != P.size(); ++B) {
    if (P[B].empty())
      continue;
    S += F.block(B)->label() + ":";
    for (VarId V : P[B])
      S += " " + F.varName(V);
    S += "\n";
  }
  return S;
}

TEST(SSA, Figure1PhiPlacement) {
  auto F = parseFunctionOrDie(R"(
func fig1(p) {
entry:
  x = 1
  if p goto thn else els
thn:
  y = 2
  goto join
els:
  y = 3
  goto join
join:
  y2 = y + 1
  z = x + y2
  ret z
}
)");
  VarId Y = unsigned(F->lookupVar("y"));
  VarId X = unsigned(F->lookupVar("x"));

  PhiPlacement Cytron = cytronPhiPlacement(*F, /*Pruned=*/true);
  DepFlowGraph G = DepFlowGraph::build(*F);
  PhiPlacement FromDFG = dfgPhiPlacement(*F, G);

  // Exactly one φ: for y at the join. x needs none (Figure 1b).
  unsigned JoinId = F->exit()->id();
  EXPECT_TRUE(Cytron[JoinId].count(Y));
  EXPECT_FALSE(Cytron[JoinId].count(X));
  EXPECT_EQ(Cytron, FromDFG)
      << "cytron:\n" << placementToString(*F, Cytron) << "dfg:\n"
      << placementToString(*F, FromDFG);
}

TEST(SSA, ApplySSAProducesValidSSA) {
  auto F = parseFunctionOrDie(R"(
func f(n) {
entry:
  s = 0
  goto head
head:
  t = n > 0
  if t goto body else out
body:
  s = s + n
  n = n - 1
  goto head
out:
  ret s
}
)");
  PhiPlacement P = cytronPhiPlacement(*F, /*Pruned=*/true);
  applySSA(*F, P);
  EXPECT_TRUE(isSSAForm(*F)) << printFunction(*F);
  EXPECT_TRUE(isWellFormed(*F)) << printFunction(*F);
  ExecResult R = runFunction(*F, {4});
  ASSERT_TRUE(R.Halted);
  EXPECT_EQ(R.Outputs[0], 10);
}

class SSAPropertyTest : public ::testing::TestWithParam<int> {};

std::unique_ptr<Function> makeStructured(int Param) {
  GenOptions Opts;
  Opts.Seed = std::uint64_t(Param) * 7 + 1;
  Opts.TargetStmts = 24;
  Opts.NumVars = 5;
  return generateStructuredProgram(Opts);
}

TEST_P(SSAPropertyTest, DFGPlacementEqualsPrunedCytronOnStructured) {
  auto F = makeStructured(GetParam());
  PhiPlacement Cytron = cytronPhiPlacement(*F, /*Pruned=*/true);
  DepFlowGraph G = DepFlowGraph::build(*F);
  PhiPlacement FromDFG = dfgPhiPlacement(*F, G);
  EXPECT_EQ(Cytron, FromDFG)
      << printFunction(*F) << "cytron:\n"
      << placementToString(*F, Cytron) << "dfg:\n"
      << placementToString(*F, FromDFG);
}

TEST_P(SSAPropertyTest, MinimalContainsPruned) {
  auto F = makeStructured(GetParam());
  PhiPlacement Minimal = cytronPhiPlacement(*F, /*Pruned=*/false);
  PhiPlacement Pruned = cytronPhiPlacement(*F, /*Pruned=*/true);
  for (unsigned B = 0; B != F->numBlocks(); ++B)
    for (VarId V : Pruned[B])
      EXPECT_TRUE(Minimal[B].count(V)) << F->block(B)->label();
}

TEST_P(SSAPropertyTest, SSAPreservesSemantics) {
  std::unique_ptr<Function> F;
  if (GetParam() % 2 == 0)
    F = makeStructured(GetParam());
  else
    F = generateRandomCFGProgram(std::uint64_t(GetParam()) * 11 + 5, 11, 50,
                                 4, 2);
  auto Clone = parseFunctionOrDie(printFunction(*F));
  PhiPlacement P = cytronPhiPlacement(*Clone, /*Pruned=*/true);
  applySSA(*Clone, P);
  ASSERT_TRUE(isSSAForm(*Clone)) << printFunction(*Clone);
  ASSERT_TRUE(isWellFormed(*Clone)) << printFunction(*Clone);

  RNG Rand(std::uint64_t(GetParam()) * 3 + 1);
  Status S = diffExecutions(*F, *Clone, Rand);
  EXPECT_TRUE(S.ok()) << S.str();
}

TEST_P(SSAPropertyTest, DFGSSAPreservesSemanticsToo) {
  auto F = makeStructured(GetParam() + 100);
  auto Clone = parseFunctionOrDie(printFunction(*F));
  DepFlowGraph G = DepFlowGraph::build(*Clone);
  PhiPlacement P = dfgPhiPlacement(*Clone, G);
  applySSA(*Clone, P);
  ASSERT_TRUE(isSSAForm(*Clone)) << printFunction(*Clone);
  ASSERT_TRUE(isWellFormed(*Clone)) << printFunction(*Clone);

  RNG Rand(std::uint64_t(GetParam()) * 13 + 2);
  Status S = diffExecutions(*F, *Clone, Rand);
  EXPECT_TRUE(S.ok()) << S.str();
}

TEST_P(SSAPropertyTest, SCCPMatchesCFGConstProp) {
  std::unique_ptr<Function> F;
  if (GetParam() % 2 == 0)
    F = makeStructured(GetParam());
  else
    F = generateRandomCFGProgram(std::uint64_t(GetParam()) * 23 + 9, 11, 50,
                                 4, 2);
  ConstPropResult CFG;
  ASSERT_TRUE(
      runConstantPropagation(*F, nullptr, EvalMode::DenseCFG, CFG).ok());

  auto SSAFn = parseFunctionOrDie(printFunction(*F));
  PhiPlacement P = cytronPhiPlacement(*SSAFn, /*Pruned=*/true);
  std::vector<VarId> OrigOf = applySSA(*SSAFn, P);
  ConstPropResult SC = sccp(*SSAFn, OrigOf);

  // Compare positionally: non-φ instruction k of block B corresponds.
  for (unsigned B = 0; B != F->numBlocks(); ++B) {
    std::vector<const Instruction *> Orig, InSSA;
    for (const auto &I : F->block(B)->instructions())
      Orig.push_back(I.get());
    for (const auto &I : SSAFn->block(B)->instructions())
      if (!isa<PhiInst>(I.get()))
        InSSA.push_back(I.get());
    ASSERT_EQ(Orig.size(), InSSA.size());
    for (unsigned K = 0; K != Orig.size(); ++K) {
      for (unsigned Idx = 0; Idx != Orig[K]->numOperands(); ++Idx) {
        EXPECT_EQ(CFG.useValue(Orig[K], Idx).str(),
                  SC.useValue(InSSA[K], Idx).str())
            << "block " << F->block(B)->label() << " instr '"
            << printInstruction(*F, *Orig[K]) << "' operand " << Idx << "\n"
            << printFunction(*F) << "\n"
            << printFunction(*SSAFn);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SSAPropertyTest, ::testing::Range(0, 30));

} // namespace
