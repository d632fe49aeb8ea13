//===- tests/cdg_test.cpp - Control dependence tests ----------------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
// Validates Claim 1 of the paper: CFG edges have equal control dependence
// iff they are cycle equivalent in the augmented graph — by comparing the
// FOW-baseline partition with the cycle-equivalence partition — and checks
// the factored CDG produces the same per-edge sets as the baseline.
//
//===----------------------------------------------------------------------===//

#include "cdg/ControlDependence.h"
#include "graph/Dominators.h"
#include "ParseOrDie.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "workload/Generators.h"

#include <gtest/gtest.h>

#include <map>

using namespace depflow;

namespace {

void expectSamePartition(const std::vector<unsigned> &A,
                         const std::vector<unsigned> &B,
                         const std::string &Context) {
  ASSERT_EQ(A.size(), B.size()) << Context;
  std::map<unsigned, unsigned> AToB, BToA;
  for (std::size_t I = 0; I != A.size(); ++I) {
    auto ItA = AToB.try_emplace(A[I], B[I]).first;
    EXPECT_EQ(ItA->second, B[I]) << Context << ": edge " << I;
    auto ItB = BToA.try_emplace(B[I], A[I]).first;
    EXPECT_EQ(ItB->second, A[I]) << Context << ": edge " << I;
  }
}

TEST(ControlDependence, DiamondNodeCD) {
  auto F = parseFunctionOrDie(R"(
func f(c) {
entry:
  if c goto t else e
t:
  goto join
e:
  goto join
join:
  ret
}
)");
  CFGEdges E(*F);
  auto CD = nodeControlDependence(*F, E, DomTree(*F, DomTree::Post));
  // Blocks: entry 0, t 1, e 2, join 3. Edges: entry->t 0, entry->e 1.
  EXPECT_TRUE(CD[0].empty());
  ASSERT_EQ(CD[1].size(), 1u);
  EXPECT_EQ(CD[1][0], 0u);
  ASSERT_EQ(CD[2].size(), 1u);
  EXPECT_EQ(CD[2][0], 1u);
  EXPECT_TRUE(CD[3].empty());
}

TEST(ControlDependence, LoopNodeCD) {
  auto F = parseFunctionOrDie(R"(
func f(c) {
entry:
  goto head
head:
  if c goto body else out
body:
  goto head
out:
  ret
}
)");
  CFGEdges E(*F);
  auto CD = nodeControlDependence(*F, E, DomTree(*F, DomTree::Post));
  // body (2) is control dependent on the head->body edge. Under the
  // paper's Definition 2 the head itself is NOT dependent on its own
  // branch (it postdominates itself), unlike FOW's loop-dependence
  // convention.
  unsigned HeadToBody = E.outEdge(F->block(1), 0);
  EXPECT_TRUE(CD[1].empty());
  ASSERT_EQ(CD[2].size(), 1u);
  EXPECT_EQ(CD[2][0], HeadToBody);
  EXPECT_TRUE(CD[0].empty());
  EXPECT_TRUE(CD[3].empty());
}

class CDGPropertyTest : public ::testing::TestWithParam<int> {};

/// Claim 1 of the paper, in the scope where set-based control dependence
/// can express it: on while-structured CFGs, edges have equal FOW control
/// dependence sets iff they are cycle equivalent in the augmented graph.
TEST_P(CDGPropertyTest, Claim1PartitionEqualityOnStructuredCFGs) {
  std::uint64_t Seed = std::uint64_t(GetParam());
  GenOptions Opts;
  Opts.Seed = Seed;
  Opts.TargetStmts = 20;
  std::unique_ptr<Function> F = generateStructuredProgram(Opts);
  CFGEdges E(*F);
  CycleEquivalence CE = cycleEquivalenceClasses(*F, E);
  unsigned BaselineClasses = 0;
  std::vector<unsigned> Baseline =
      edgeCDPartitionBaseline(*F, E, BaselineClasses);
  expectSamePartition(CE.ClassOf, Baseline,
                      "seed " + std::to_string(Seed) + "\n" +
                          printFunction(*F));
}

/// On arbitrary CFGs, cycle equivalence *refines* CD-set equality: edges
/// in one class always have identical control dependence sets (this is the
/// direction the factored CDG construction needs), but CD-set equality can
/// be coarser (see BottomExitLoopCounterexample below).
TEST_P(CDGPropertyTest, CycleEquivalenceRefinesCDSetEquality) {
  std::uint64_t Seed = std::uint64_t(GetParam());
  std::unique_ptr<Function> F = generateRandomCFGProgram(Seed, 13, 55, 3, 1);
  CFGEdges E(*F);
  CycleEquivalence CE = cycleEquivalenceClasses(*F, E);
  auto CD = edgeControlDependenceBaseline(*F, E);
  for (unsigned X = 0; X != E.size(); ++X)
    for (unsigned Y = X + 1; Y != E.size(); ++Y)
      if (CE.sameClass(X, Y))
        EXPECT_EQ(CD[X], CD[Y]) << "edges " << X << "," << Y << " seed "
                                << Seed << "\n"
                                << printFunction(*F);
}

/// The documented scope limit of Claim 1: in a bottom-exit (repeat-until)
/// loop, the loop body edge and the back edge have the same FOW control
/// dependence set, yet they are not cycle equivalent — the body also runs
/// on the wrap-around (single-trip) execution, which the augmented graph's
/// cycle structure sees and set-based control dependence cannot.
TEST(ControlDependence, BottomExitLoopCounterexample) {
  auto F = parseFunctionOrDie(R"(
func f() {
entry:
  goto h
h:
  x = read()
  goto h2
h2:
  c = read()
  if c goto h else out
out:
  ret
}
)");
  CFGEdges E(*F);
  // Edges: entry->h 0, h->h2 1, h2->h 2 (back), h2->out 3.
  CycleEquivalence CE = cycleEquivalenceClasses(*F, E);
  auto CD = edgeControlDependenceBaseline(*F, E);
  EXPECT_EQ(CD[1], CD[2])
      << "in-loop edge and back edge share the CD set {back edge}";
  EXPECT_FALSE(CE.sameClass(1, 2))
      << "but not cycle equivalent: the single-trip execution runs edge 1 "
         "without edge 2";
}

TEST_P(CDGPropertyTest, FactoredCDGMatchesBaselineSets) {
  std::uint64_t Seed = std::uint64_t(GetParam()) * 3 + 1;
  std::unique_ptr<Function> F =
      generateRandomCFGProgram(Seed, 12, 60, 3, 1);
  CFGEdges E(*F);
  FactoredCDG Factored = buildFactoredCDG(*F, E);
  auto Baseline = edgeControlDependenceBaseline(*F, E);
  for (unsigned Id = 0; Id != E.size(); ++Id)
    EXPECT_EQ(Factored.edgeCD(Id), Baseline[Id])
        << "edge " << Id << " seed " << Seed << "\n"
        << printFunction(*F);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CDGPropertyTest, ::testing::Range(0, 30));

TEST(ControlDependence, NodeCDMatchesDefinitionOnRandomCFGs) {
  // Definition 2: x is control dependent on branch edge e=(u,v) iff x
  // postdominates v and x does not postdominate u.
  for (std::uint64_t Seed = 0; Seed < 12; ++Seed) {
    auto F = generateRandomCFGProgram(Seed, 11, 50, 3, 1);
    CFGEdges E(*F);
    auto CD = nodeControlDependence(*F, E, DomTree(*F, DomTree::Post));
    Digraph G = cfgDigraph(*F);
    DomTree PDT(G.reversed(), F->exit()->id());
    for (const auto &BB : F->blocks()) {
      std::vector<unsigned> Expected;
      for (unsigned Id = 0; Id != E.size(); ++Id) {
        const CFGEdge &Edge = E.edge(Id);
        if (Edge.From->numSuccessors() < 2)
          continue;
        if (PDT.dominates(BB->id(), Edge.To->id()) &&
            !PDT.dominates(BB->id(), Edge.From->id()))
          Expected.push_back(Id);
      }
      EXPECT_EQ(CD[BB->id()], Expected)
          << "block " << BB->label() << " seed " << Seed;
    }
  }
}

} // namespace
