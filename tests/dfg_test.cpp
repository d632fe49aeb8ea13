//===- tests/dfg_test.cpp - Dependence flow graph tests -------------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
// The load-bearing property test: for every use of every variable, the set
// of definitions with a DFG path to that use must equal the classic
// reaching-definitions answer (conditions 1-3 of Definition 6, end to end).
// Structural tests pin the bypassing behaviour of Figures 1 and 2. The
// liveness oracle checks the live-only construction against classic
// liveness computed independently (dataflow/Liveness).
//
//===----------------------------------------------------------------------===//

#include "core/DepFlowGraph.h"
#include "ParseOrDie.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Transforms.h"
#include "ir/Verifier.h"
#include "dataflow/DefUse.h"
#include "dataflow/Liveness.h"
#include "obs/Metrics.h"
#include "ir/CFGEdges.h"
#include "workload/Generators.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <tuple>

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
  // Reverse reachability from uses must cover every node (the dead-edge
  // removal invariant).
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
// in both bypass modes; a variable with no live value has an empty slice.
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

// The per-block lists answer the point queries: switchesAt(BB) lists
// exactly the switches switchNode finds there, in ascending variable
// order, and every node a lookup returns sits at that block and carries
// that variable.
TEST_P(DFGPropertyTest, BlockListsAgreeWithPointLookups) {
  auto F = generateRandomCFGProgram(std::uint64_t(GetParam()) * 37 + 9, 10,
                                    50, 5, 2);
  F->recomputePreds();
  CFGEdges E(*F);
  for (auto Mode :
       {DepFlowGraph::BypassMode::None, DepFlowGraph::BypassMode::SESE}) {
    DepFlowGraph G = DepFlowGraph::build(*F, E, Mode);
    for (const auto &BB : F->blocks()) {
      std::vector<std::uint32_t> Expected;
      for (VarId V = 0; V <= G.controlVar(); ++V) {
        if (int S = G.switchNode(BB.get(), V); S >= 0) {
          Expected.push_back(std::uint32_t(S));
          EXPECT_EQ(G.node(unsigned(S)).Kind, DepFlowGraph::NodeKind::Switch);
          EXPECT_EQ(G.node(unsigned(S)).Var, V);
          EXPECT_EQ(G.node(unsigned(S)).Block, BB.get());
        }
        if (int M = G.mergeNode(BB.get(), V); M >= 0) {
          EXPECT_EQ(G.node(unsigned(M)).Kind, DepFlowGraph::NodeKind::Merge);
          EXPECT_EQ(G.node(unsigned(M)).Var, V);
          EXPECT_EQ(G.node(unsigned(M)).Block, BB.get());
        }
      }
      std::span<const std::uint32_t> Listed = G.switchesAt(BB.get());
      EXPECT_EQ(std::vector<std::uint32_t>(Listed.begin(), Listed.end()),
                Expected)
          << BB->label();
    }
  }
}

// Pointer-keyed queries take an instruction's row from its block's first
// row plus its position there, and answer only for the graph's own
// instructions: every instruction agrees with the canonical row walk,
// while the instructions of a twin function (same block ids and positions)
// and an instruction inserted after the build answer -1.
TEST_P(DFGPropertyTest, PointerQueriesAnswerOnlyForTheGraphsInstructions) {
  const std::uint64_t Seed = std::uint64_t(GetParam()) * 41 + 3;
  auto F = generateRandomCFGProgram(Seed, 10, 50, 5, 2);
  auto Twin = generateRandomCFGProgram(Seed, 10, 50, 5, 2);
  ASSERT_EQ(printFunction(*F), printFunction(*Twin));
  DepFlowGraph G = DepFlowGraph::build(*F);
  unsigned Row = 0, Answered = 0;
  for (unsigned B = 0; B != F->numBlocks(); ++B)
    for (unsigned K = 0; K != F->block(B)->size(); ++K, ++Row) {
      const Instruction *I = F->block(B)->instructions()[K].get();
      const Instruction *TwinI = Twin->block(B)->instructions()[K].get();
      EXPECT_EQ(G.defNode(I), G.defNodeAt(Row));
      EXPECT_EQ(G.defNode(TwinI), -1);
      for (unsigned Op = 0; Op <= I->numOperands() + 1; ++Op) {
        EXPECT_EQ(G.useNode(I, Op), G.useNodeAt(Row, Op));
        EXPECT_EQ(G.useNode(TwinI, Op), -1);
        Answered += G.useNode(I, Op) >= 0;
      }
    }
  EXPECT_GT(Answered, 0u);

  const Instruction *New = F->entry()->insertAt(
      0, std::make_unique<CopyInst>(VarId(0), Operand::var(VarId(0))));
  EXPECT_EQ(G.defNode(New), -1);
  EXPECT_EQ(G.useNode(New, 0), -1);
  EXPECT_EQ(G.useNode(New, 1), -1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DFGPropertyTest, ::testing::Range(0, 30));

// The graph's storage follows the live graph, not the variable count:
// variables that nothing references add no node or edge, and cost the
// build a few bytes each, far below one slot per block and per CFG edge
// (the dense lookup tables cost 8 bytes per block and per edge).
TEST(DFGStorage, UnreferencedVariablesBarelyGrowTheBuild) {
  GenOptions Opts;
  Opts.Seed = 11;
  Opts.TargetStmts = 60;
  auto F = generateStructuredProgram(Opts);
  F->recomputePreds();
  CFGEdges E(*F);

  using NodeRow = std::tuple<DepFlowGraph::NodeKind, std::int64_t,
                             const Instruction *, unsigned,
                             const BasicBlock *>;
  using EdgeRow = std::tuple<unsigned, unsigned, std::int64_t, unsigned,
                             unsigned>;
  struct Built {
    std::vector<NodeRow> Nodes;
    std::vector<EdgeRow> Edges;
    std::uint64_t Bytes = 0;
  };
  // The control variable's id moves with the variable count, so it is
  // compared as -1.
  auto BuildAndRead = [&] {
    Built B;
    std::optional<DepFlowGraph> G;
    {
      obs::AllocDelta D;
      G.emplace(DepFlowGraph::build(*F, E));
      B.Bytes = D.bytes();
    }
    auto VarKey = [&](VarId V) {
      return G->isControl(V) ? std::int64_t(-1) : std::int64_t(V);
    };
    for (unsigned N = 0; N != G->numNodes(); ++N) {
      const DepFlowGraph::Node Nd = G->node(N);
      B.Nodes.emplace_back(Nd.Kind, VarKey(Nd.Var), Nd.Inst, Nd.OpIdx,
                           Nd.Block);
    }
    for (unsigned Id = 0; Id != G->numEdges(); ++Id) {
      const DepFlowGraph::Edge &Ed = G->edge(Id);
      B.Edges.emplace_back(Ed.Src, Ed.Dst, VarKey(Ed.Var), Ed.SrcPort,
                           Ed.DstPort);
    }
    return B;
  };

  const Built Before = BuildAndRead();
  ASSERT_GT(Before.Bytes, 0u) << "allocation tallies must be active";
  constexpr unsigned Added = 1000;
  for (unsigned I = 0; I != Added; ++I)
    F->makeVar("unused" + std::to_string(I));
  const Built After = BuildAndRead();

  EXPECT_EQ(After.Nodes, Before.Nodes);
  EXPECT_EQ(After.Edges, Before.Edges);
  const std::uint64_t PerVarBound = 2 * (F->numBlocks() + E.size());
  EXPECT_LE(After.Bytes, Before.Bytes + Added * PerVarBound)
      << "build bytes " << Before.Bytes << " -> " << After.Bytes << " for "
      << Added << " added variables, " << F->numBlocks() << " blocks, "
      << E.size() << " CFG edges";
}

/// True if \p I carries the control use: a statement with no variable
/// operand that is an assignment or has an operand (Section 3.3).
bool hasControlUse(const Instruction &I) {
  for (const Operand &Op : I.operands())
    if (Op.isVar())
      return false;
  return isa<DefInst>(&I) || I.numOperands() > 0;
}

/// The paper's base-level graph size in closed form: per variable (and
/// the control variable) an entry node, a merge per join, and a switch
/// per branch; one node per use, control use and def. Edges: one into
/// every use, one into every switch, one per predecessor into every merge.
void checkBaseLevelStats(Function &F, DepFlowGraph::BypassMode Mode,
                         const std::string &Context) {
  F.recomputePreds();
  const unsigned Vars = F.numVars() + 1;
  unsigned Joins = 0, Branches = 0, JoinPreds = 0, Uses = 0, Defs = 0;
  for (const auto &BB : F.blocks()) {
    if (BB->isMerge()) {
      ++Joins;
      JoinPreds += BB->numPredecessors();
    }
    Branches += unsigned(BB->isSwitch());
    for (const auto &I : BB->instructions()) {
      for (const Operand &Op : I->operands())
        Uses += unsigned(Op.isVar());
      Uses += unsigned(hasControlUse(*I));
      Defs += unsigned(isa<DefInst>(I.get()));
    }
  }
  DepFlowGraph G = DepFlowGraph::build(F, Mode);
  EXPECT_EQ(G.stats().NodesBeforePrune,
            Vars * (1 + Joins + Branches) + Uses + Defs)
      << Context;
  EXPECT_EQ(G.stats().EdgesBeforePrune,
            Uses + Vars * (Branches + JoinPreds))
      << Context;
}

/// Without bypassing, a DFG value is live exactly where classic liveness
/// says its variable is: a merge exists iff the variable is live into its
/// block, a switch iff it is live out of it, the entry node iff it is live
/// into the entry block, and the dependence map is empty exactly on the
/// CFG edges into blocks where it is dead. The control variable is never
/// assigned, so its liveness is backward reachability from its uses.
void checkAgainstClassicLiveness(Function &F, const std::string &Context) {
  F.recomputePreds();
  CFGEdges E(F);
  DepFlowGraph G = DepFlowGraph::build(F, E, DepFlowGraph::BypassMode::None);
  Liveness L = computeLiveness(F);

  std::vector<bool> CtrlIn(F.numBlocks(), false);
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (const auto &BB : F.blocks()) {
      bool Live = CtrlIn[BB->id()];
      for (const auto &I : BB->instructions())
        Live = Live || hasControlUse(*I);
      for (const BasicBlock *Succ : BB->successors())
        Live = Live || CtrlIn[Succ->id()];
      if (Live != CtrlIn[BB->id()]) {
        CtrlIn[BB->id()] = Live;
        Changed = true;
      }
    }
  }
  auto LiveIn = [&](const BasicBlock *BB, VarId V) {
    return G.isControl(V) ? bool(CtrlIn[BB->id()]) : L.liveIn(BB, V);
  };
  auto LiveOut = [&](const BasicBlock *BB, VarId V) {
    bool Live = false;
    for (const BasicBlock *Succ : BB->successors())
      Live = Live || LiveIn(Succ, V);
    return Live;
  };

  for (VarId V = 0; V <= G.controlVar(); ++V) {
    std::string Name =
        Context + ", var " + (G.isControl(V) ? "ctrl" : F.varName(V));
    EXPECT_EQ(G.entryNode(V) >= 0, LiveIn(F.entry(), V)) << Name;
    for (const auto &BB : F.blocks()) {
      EXPECT_EQ(G.mergeNode(BB.get(), V) >= 0,
                BB->isMerge() && LiveIn(BB.get(), V))
          << Name << ", merge at " << BB->label();
      EXPECT_EQ(G.switchNode(BB.get(), V) >= 0,
                BB->isSwitch() && LiveOut(BB.get(), V))
          << Name << ", switch at " << BB->label();
      if (!G.isControl(V)) {
        EXPECT_EQ(LiveOut(BB.get(), V), L.liveOut(BB.get(), V)) << Name;
      }
    }
    for (unsigned Id = 0; Id != E.size(); ++Id) {
      auto [N, Port] = G.depAtEdge(Id, V);
      if (LiveIn(E.edge(Id).To, V)) {
        EXPECT_GE(N, 0) << Name << ", live CFG edge " << Id;
      } else {
        EXPECT_TRUE(N == -1 && Port == 0)
            << Name << ", dead CFG edge " << Id << " maps to node " << N;
      }
    }
  }
}

TEST(DFGLivenessOracle, HandWrittenPrograms) {
  for (const char *Src : {Figure1Src, R"(
func f(p) {
entry:
  if p goto thn else out
thn:
  x = 5
  goto out
out:
  ret x
}
)"}) {
    auto F = parseFunctionOrDie(Src);
    checkAgainstClassicLiveness(*F, F->name());
    separateComputation(*F);
    checkAgainstClassicLiveness(*F, F->name() + " separated");
  }
}

class DFGLivenessOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(DFGLivenessOracleTest, NoBypassNodesFollowClassicLiveness) {
  const std::uint64_t Seed = std::uint64_t(GetParam());
  GenOptions Opts;
  Opts.Seed = Seed * 3 + 1;
  Opts.TargetStmts = 24;
  Opts.ClusterWindow = Seed % 2 ? 3 : 0; // short live ranges on odd seeds
  auto S = generateStructuredProgram(Opts);
  checkAgainstClassicLiveness(*S, "structured seed " + std::to_string(Seed));
  auto R = generateRandomCFGProgram(Seed * 7 + 2, 12, 50, 6, 1);
  checkAgainstClassicLiveness(*R, "random seed " + std::to_string(Seed));
  RNG Rand(Seed + 1000);
  unsigned Family = 0;
  auto M = generateMixedProgram(Rand, &Family);
  checkAgainstClassicLiveness(*M, std::string(mixedFamilyName(Family)) +
                                      " seed " + std::to_string(Seed));
}

TEST_P(DFGLivenessOracleTest, StatsCountTheBaseLevelInBothModes) {
  const std::uint64_t Seed = std::uint64_t(GetParam());
  GenOptions Opts;
  Opts.Seed = Seed * 5 + 4;
  Opts.TargetStmts = 24;
  auto S = generateStructuredProgram(Opts);
  auto R = generateRandomCFGProgram(Seed * 11 + 6, 12, 50, 6, 2);
  for (auto Mode :
       {DepFlowGraph::BypassMode::None, DepFlowGraph::BypassMode::SESE}) {
    std::string Tag =
        Mode == DepFlowGraph::BypassMode::None ? " (none)" : " (sese)";
    checkBaseLevelStats(*S, Mode, "structured seed " + std::to_string(Seed) +
                                      Tag);
    checkBaseLevelStats(*R, Mode, "random seed " + std::to_string(Seed) +
                                      Tag);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DFGLivenessOracleTest,
                         ::testing::Range(0, 60));

} // namespace
