//===- tests/dfg_test.cpp - Dependence flow graph tests -------------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
// The load-bearing property test: for every use of every variable, the set
// of definitions with a DFG path to that use must equal the classic
// reaching-definitions answer (conditions 1-3 of Definition 6, end to end).
// Structural tests pin the bypassing behaviour of Figures 1 and 2.
//
//===----------------------------------------------------------------------===//

#include "core/DepFlowGraph.h"
#include "ParseOrDie.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Transforms.h"
#include "ir/Verifier.h"
#include "dataflow/DefUse.h"
#include "workload/Generators.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

using namespace depflow;

namespace {

/// Definitions (Def instructions; nullptr = entry) reaching DFG node \p N
/// backwards through dependence edges.
std::set<const Instruction *> dfgDefsReaching(const DepFlowGraph &G,
                                              unsigned UseNode) {
  std::set<const Instruction *> Defs;
  std::vector<bool> Seen(G.numNodes(), false);
  std::vector<unsigned> Stack{UseNode};
  Seen[UseNode] = true;
  while (!Stack.empty()) {
    unsigned N = Stack.back();
    Stack.pop_back();
    const auto &Node = G.node(N);
    if (Node.Kind == DepFlowGraph::NodeKind::Def) {
      Defs.insert(Node.Inst);
      continue; // A def kills; nothing upstream of it reaches the use.
    }
    if (Node.Kind == DepFlowGraph::NodeKind::Entry) {
      Defs.insert(nullptr);
      continue;
    }
    for (unsigned EId : G.inEdges(N)) {
      unsigned Src = G.edge(EId).Src;
      if (!Seen[Src]) {
        Seen[Src] = true;
        Stack.push_back(Src);
      }
    }
  }
  return Defs;
}

void checkReachingEquivalence(Function &F, DepFlowGraph::BypassMode Mode,
                              const std::string &Context) {
  DepFlowGraph G = DepFlowGraph::build(F, Mode);
  ReachingDefs RD(F);
  for (const ReachingDefs::Use &U : RD.uses()) {
    int UseNode = G.useNode(U.I, U.OpIdx);
    ASSERT_GE(UseNode, 0) << Context << ": use has no DFG node";
    std::set<const Instruction *> ViaDFG =
        dfgDefsReaching(G, unsigned(UseNode));
    auto Classic = RD.defsReaching(U.I, U.OpIdx);
    std::set<const Instruction *> ViaRD(Classic.begin(), Classic.end());
    EXPECT_EQ(ViaDFG, ViaRD)
        << Context << ": use of " << F.varName(U.Var) << " at '"
        << printInstruction(F, *U.I) << "'\n"
        << printFunction(F);
  }
}

const char *Figure1Src = R"(
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
  y = y + 1
  z = x + y
  ret z
}
)";

TEST(DFG, Figure1BypassesXThroughTheConditional) {
  auto F = parseFunctionOrDie(Figure1Src);
  separateComputation(*F);
  ASSERT_TRUE(isWellFormed(*F));
  DepFlowGraph G = DepFlowGraph::build(*F);
  VarId X = unsigned(F->lookupVar("x"));
  VarId Y = unsigned(F->lookupVar("y"));

  // x: no switch or merge nodes anywhere (the conditional is a def-free
  // single-entry single-exit region for x, so its dependence bypasses it).
  for (const auto &BB : F->blocks()) {
    EXPECT_EQ(G.switchNode(BB.get(), X), -1) << BB->label();
    EXPECT_EQ(G.mergeNode(BB.get(), X), -1) << BB->label();
  }
  // y: the merge must exist (the region defines y). After normalization
  // the join lives in the inserted "join.merge" block.
  BasicBlock *MergeBlock = nullptr;
  for (const auto &BB : F->blocks())
    if (BB->label() == "join.merge")
      MergeBlock = BB.get();
  ASSERT_NE(MergeBlock, nullptr);
  EXPECT_GE(G.mergeNode(MergeBlock, Y), 0);
  BasicBlock *Join = F->exit();

  // The def of x feeds the use in "z = x + y" directly.
  const Instruction *DefX = F->entry()->instructions()[0].get();
  const Instruction *ZInst = Join->instructions()[1].get();
  ASSERT_EQ(cast<DefInst>(DefX)->def(), X);
  int DefNode = G.defNode(DefX);
  int UseNode = G.useNode(ZInst, 0);
  ASSERT_GE(DefNode, 0);
  ASSERT_GE(UseNode, 0);
  bool Direct = false;
  for (unsigned EId : G.outEdges(unsigned(DefNode)))
    Direct |= int(G.edge(EId).Dst) == UseNode;
  EXPECT_TRUE(Direct) << "x's dependence must skip the diamond entirely\n"
                      << G.toDot(*F);
}

TEST(DFG, Figure2BypassingShrinksTheGraph) {
  // Figure 2's point: region bypassing plus dead edge removal yields far
  // fewer dependence edges than the base-level graph.
  auto F = parseFunctionOrDie(Figure1Src);
  separateComputation(*F);
  DepFlowGraph Base = DepFlowGraph::build(*F, DepFlowGraph::BypassMode::None);
  DepFlowGraph Full = DepFlowGraph::build(*F, DepFlowGraph::BypassMode::SESE);
  EXPECT_LT(Full.numEdges(), Base.numEdges());
  EXPECT_GT(Full.stats().BypassRedirects, 0u);
}

TEST(DFG, ControlEdgesGoThroughSwitches) {
  // A constant assignment under a branch must have a control use whose
  // dependence passes the governing switch (Section 3.3) — that is what
  // lets constant propagation see dead branches.
  auto F = parseFunctionOrDie(R"(
func f(p) {
entry:
  if p goto thn else out
thn:
  x = 5
  goto out
out:
  ret x
}
)");
  DepFlowGraph G = DepFlowGraph::build(*F);
  const Instruction *XDef = F->block(1)->instructions()[0].get();
  int CtrlUse = G.useNode(XDef, XDef->numOperands());
  ASSERT_GE(CtrlUse, 0) << "constant assignment needs a control use";
  // Its feeding chain must include the switch at the entry block.
  int Sw = G.switchNode(F->entry(), G.controlVar());
  ASSERT_GE(Sw, 0);
  std::set<const Instruction *> Defs = dfgDefsReaching(G, unsigned(CtrlUse));
  EXPECT_EQ(Defs.size(), 1u);
  EXPECT_EQ(*Defs.begin(), nullptr) << "control var defined only at entry";
  bool FedBySwitch = false;
  for (unsigned EId : G.inEdges(unsigned(CtrlUse)))
    FedBySwitch |= G.edge(EId).Src == unsigned(Sw);
  EXPECT_TRUE(FedBySwitch) << G.toDot(*F);
}

TEST(DFG, EveryNodeReachesAUse) {
  GenOptions Opts;
  Opts.Seed = 11;
  Opts.TargetStmts = 30;
  auto F = generateStructuredProgram(Opts);
  DepFlowGraph G = DepFlowGraph::build(*F);
  // Reverse reachability from uses must cover every node (prune invariant).
  std::vector<bool> Seen(G.numNodes(), false);
  std::vector<unsigned> Stack;
  for (unsigned N = 0; N != G.numNodes(); ++N) {
    if (G.node(N).Kind == DepFlowGraph::NodeKind::Use) {
      Seen[N] = true;
      Stack.push_back(N);
    }
  }
  while (!Stack.empty()) {
    unsigned N = Stack.back();
    Stack.pop_back();
    for (unsigned EId : G.inEdges(N)) {
      if (!Seen[G.edge(EId).Src]) {
        Seen[G.edge(EId).Src] = true;
        Stack.push_back(G.edge(EId).Src);
      }
    }
  }
  for (unsigned N = 0; N != G.numNodes(); ++N)
    EXPECT_TRUE(Seen[N]) << G.nodeLabel(*F, N);
}

TEST(DFG, SelfLoopAndCriticalEdges) {
  auto F = generateRepeatUntilChain(3, 3, 5);
  checkReachingEquivalence(*F, DepFlowGraph::BypassMode::SESE, "repeat");
  checkReachingEquivalence(*F, DepFlowGraph::BypassMode::None, "repeat/none");
}

TEST(DFG, SingleBlockFunction) {
  auto F = parseFunctionOrDie(R"(
func f(a) {
b:
  x = a + 1
  y = x * 2
  ret y
}
)");
  DepFlowGraph G = DepFlowGraph::build(*F);
  EXPECT_GT(G.numNodes(), 0u);
  checkReachingEquivalence(*F, DepFlowGraph::BypassMode::SESE, "single");
}

class DFGPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(DFGPropertyTest, ReachingDefsMatchOnStructured) {
  GenOptions Opts;
  Opts.Seed = std::uint64_t(GetParam());
  Opts.TargetStmts = 24;
  auto F = generateStructuredProgram(Opts);
  checkReachingEquivalence(*F, DepFlowGraph::BypassMode::SESE,
                           "structured seed " + std::to_string(GetParam()));
}

TEST_P(DFGPropertyTest, ReachingDefsMatchOnRandomCFGs) {
  auto F = generateRandomCFGProgram(std::uint64_t(GetParam()) * 17 + 3, 12,
                                    55, 4, 2);
  checkReachingEquivalence(*F, DepFlowGraph::BypassMode::SESE,
                           "random seed " + std::to_string(GetParam()));
}

TEST_P(DFGPropertyTest, BypassModesAgreeOnReachingSemantics) {
  GenOptions Opts;
  Opts.Seed = std::uint64_t(GetParam()) * 5 + 2;
  Opts.TargetStmts = 20;
  auto F = generateStructuredProgram(Opts);
  checkReachingEquivalence(*F, DepFlowGraph::BypassMode::None,
                           "nobypass seed " + std::to_string(GetParam()));
}

TEST_P(DFGPropertyTest, ReachingDefsMatchOnSeparatedCFGs) {
  // The paper's node model: computation separated from switches/merges —
  // this is the configuration that maximizes bypassing.
  auto F = generateRandomCFGProgram(std::uint64_t(GetParam()) * 29 + 11, 10,
                                    50, 4, 2);
  separateComputation(*F);
  ASSERT_TRUE(isWellFormed(*F));
  checkReachingEquivalence(*F, DepFlowGraph::BypassMode::SESE,
                           "separated seed " + std::to_string(GetParam()));
}

TEST_P(DFGPropertyTest, BypassNeverGrowsTheGraph) {
  GenOptions Opts;
  Opts.Seed = std::uint64_t(GetParam()) * 13 + 7;
  Opts.TargetStmts = 28;
  auto F = generateStructuredProgram(Opts);
  DepFlowGraph Base =
      DepFlowGraph::build(*F, DepFlowGraph::BypassMode::None);
  DepFlowGraph Full =
      DepFlowGraph::build(*F, DepFlowGraph::BypassMode::SESE);
  EXPECT_LE(Full.numEdges(), Base.numEdges());
  EXPECT_LE(Full.numNodes(), Base.numNodes());
}

// The per-variable slices tile the edge ids in ascending variable order,
// in both bypass modes; a variable the prune removed entirely has an
// empty slice.
TEST_P(DFGPropertyTest, EdgesOfVarTileTheEdgeIds) {
  auto F = generateRandomCFGProgram(std::uint64_t(GetParam()) * 31 + 5, 10,
                                    45, 5, 2);
  for (auto Mode :
       {DepFlowGraph::BypassMode::None, DepFlowGraph::BypassMode::SESE}) {
    DepFlowGraph G = DepFlowGraph::build(*F, Mode);
    unsigned Next = 0;
    for (VarId V = 0; V <= G.controlVar(); ++V) {
      DepFlowGraph::EdgeIdRange R = G.edgesOfVar(V);
      if (R.empty())
        continue;
      EXPECT_EQ(*R.begin(), Next) << "var " << V;
      for (unsigned Id : R)
        EXPECT_EQ(G.edge(Id).Var, V) << "edge " << Id;
      Next += R.size();
    }
    EXPECT_EQ(Next, G.numEdges());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DFGPropertyTest, ::testing::Range(0, 30));

} // namespace
