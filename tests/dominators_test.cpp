//===- tests/dominators_test.cpp - Dominator tree tests -------------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "graph/Dominators.h"
#include "ir/CFGEdges.h"
#include "ParseOrDie.h"
#include "ir/Parser.h"
#include "support/RNG.h"
#include "workload/Generators.h"

#include <gtest/gtest.h>

using namespace depflow;

namespace {

Digraph fromEdges(unsigned N, const std::vector<UEdge> &Edges) {
  Digraph G(N);
  for (auto [U, V] : Edges)
    G.addEdge(U, V);
  return G;
}

TEST(DomTree, LinearChain) {
  Digraph G(4);
  G.addEdge(0, 1);
  G.addEdge(1, 2);
  G.addEdge(2, 3);
  DomTree DT(G, 0);
  EXPECT_EQ(DT.idom(0), -1);
  EXPECT_EQ(DT.idom(1), 0);
  EXPECT_EQ(DT.idom(2), 1);
  EXPECT_EQ(DT.idom(3), 2);
  EXPECT_TRUE(DT.dominates(0, 3));
  EXPECT_TRUE(DT.dominates(2, 2));
  EXPECT_FALSE(DT.dominates(3, 2));
  EXPECT_FALSE(DT.strictlyDominates(2, 2));
}

TEST(DomTree, Diamond) {
  Digraph G(4);
  G.addEdge(0, 1);
  G.addEdge(0, 2);
  G.addEdge(1, 3);
  G.addEdge(2, 3);
  DomTree DT(G, 0);
  EXPECT_EQ(DT.idom(3), 0);
  EXPECT_FALSE(DT.dominates(1, 3));
  EXPECT_FALSE(DT.dominates(2, 3));
}

TEST(DomTree, LoopWithTwoBackEdges) {
  // 0 -> 1 -> 2 -> 1 and 2 -> 3 -> 1, 3 -> 4.
  Digraph G(5);
  G.addEdge(0, 1);
  G.addEdge(1, 2);
  G.addEdge(2, 1);
  G.addEdge(2, 3);
  G.addEdge(3, 1);
  G.addEdge(3, 4);
  DomTree DT(G, 0);
  EXPECT_EQ(DT.idom(1), 0);
  EXPECT_EQ(DT.idom(2), 1);
  EXPECT_EQ(DT.idom(3), 2);
  EXPECT_EQ(DT.idom(4), 3);
}

TEST(DomTree, UnreachableNodesDominateNothing) {
  Digraph G(3);
  G.addEdge(0, 1);
  G.addEdge(2, 1); // 2 unreachable from 0.
  DomTree DT(G, 0);
  EXPECT_FALSE(DT.isReachable(2));
  EXPECT_FALSE(DT.dominates(2, 1));
  EXPECT_FALSE(DT.dominates(0, 2));
  EXPECT_EQ(DT.idom(2), -1);
}

/// Checks every query of \p DT against the brute-force definition over
/// \p G rooted at \p Root: reachability, reflexive dominance, and that
/// the idom is the strict dominator every other strict dominator
/// dominates.
void expectMatchesBruteForce(const DomTree &DT, const Digraph &G,
                             unsigned Root) {
  unsigned N = G.numNodes();
  ASSERT_EQ(DT.numNodes(), N);
  ASSERT_EQ(DT.root(), Root);
  std::vector<bool> Reached = G.reachableFrom(Root);
  for (unsigned B = 0; B != N; ++B) {
    EXPECT_EQ(DT.isReachable(B), bool(Reached[B])) << "node " << B;
    for (unsigned A = 0; A != N; ++A)
      EXPECT_EQ(DT.dominates(A, B), bruteForceDominates(G, Root, A, B))
          << "A=" << A << " B=" << B;
    if (!Reached[B] || B == Root) {
      EXPECT_EQ(DT.idom(B), -1) << "node " << B;
      continue;
    }
    ASSERT_GE(DT.idom(B), 0) << "node " << B;
    unsigned I = unsigned(DT.idom(B));
    EXPECT_TRUE(I != B && bruteForceDominates(G, Root, I, B)) << "node " << B;
    for (unsigned A = 0; A != N; ++A) {
      if (A != B && bruteForceDominates(G, Root, A, B)) {
        EXPECT_TRUE(bruteForceDominates(G, Root, A, I))
            << "idom(" << B << ") = " << I << " misses " << A;
      }
    }
  }
}

/// A random graph with the shapes strongly connected inputs lack: nodes
/// unreachable from node 0 (they only have edges into the rest), a
/// self-loop, and parallel edges.
Digraph irregularGraph(RNG &Rand) {
  unsigned N = 6 + unsigned(Rand.nextBelow(8));
  unsigned Reached = N - 1 - unsigned(Rand.nextBelow(3));
  Digraph G(N);
  for (unsigned V = 1; V != Reached; ++V)
    G.addEdge(unsigned(Rand.nextBelow(V)), V);
  for (unsigned K = 0; K != N; ++K)
    G.addEdge(unsigned(Rand.nextBelow(Reached)),
              unsigned(Rand.nextBelow(Reached)));
  for (unsigned U = Reached; U != N; ++U)
    G.addEdge(U, unsigned(Rand.nextBelow(N)));
  unsigned Loop = unsigned(Rand.nextBelow(N));
  G.addEdge(Loop, Loop);
  unsigned From = unsigned(Rand.nextBelow(Reached));
  unsigned To = unsigned(Rand.nextBelow(Reached));
  G.addEdge(From, To);
  G.addEdge(From, To);
  return G;
}

/// The inputs of every random dominance test: a strongly connected graph
/// of \p N nodes and \p M edges, and an irregular one.
std::vector<Digraph> randomGraphs(RNG &Rand, unsigned N, unsigned M) {
  std::vector<Digraph> Graphs;
  Graphs.push_back(fromEdges(N, randomStronglyConnectedEdges(Rand, N, M)));
  Graphs.push_back(irregularGraph(Rand));
  return Graphs;
}

class DomRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(DomRandomTest, MatchesBruteForce) {
  RNG Rand(std::uint64_t(GetParam()) * 77 + 5);
  unsigned N = 6 + unsigned(Rand.nextBelow(8));
  for (const Digraph &G :
       randomGraphs(Rand, N, N + unsigned(Rand.nextBelow(N))))
    expectMatchesBruteForce(DomTree(G, 0), G, 0);
}

TEST_P(DomRandomTest, PostdominanceMatchesBruteForceOnReverse) {
  RNG Rand(std::uint64_t(GetParam()) * 131 + 17);
  unsigned N = 6 + unsigned(Rand.nextBelow(8));
  for (const Digraph &G :
       randomGraphs(Rand, N, N + unsigned(Rand.nextBelow(N)))) {
    Digraph R = G.reversed();
    expectMatchesBruteForce(DomTree(R, 0), R, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DomRandomTest, ::testing::Range(0, 25));

/// The trees built straight from a function, in both directions over the
/// block CFG and the edge-split CFG, against brute force over the
/// independent `Digraph` conversions. Their children must also come out
/// in the order a tree over those conversions gives, which fixes SSA's
/// renaming order.
class DomFunctionTest : public ::testing::TestWithParam<int> {};

void expectSameChildren(const DomTree &A, const DomTree &B) {
  ASSERT_EQ(A.numNodes(), B.numNodes());
  for (unsigned N = 0; N != A.numNodes(); ++N) {
    auto CA = A.children(N), CB = B.children(N);
    EXPECT_EQ(std::vector<unsigned>(CA.begin(), CA.end()),
              std::vector<unsigned>(CB.begin(), CB.end()))
        << "node " << N;
  }
}

TEST_P(DomFunctionTest, ConstructorsMatchBruteForce) {
  std::uint64_t Seed = std::uint64_t(GetParam());
  std::unique_ptr<Function> F;
  if (GetParam() % 2 == 0) {
    GenOptions Opts;
    Opts.Seed = Seed;
    Opts.TargetStmts = 20;
    F = generateStructuredProgram(Opts);
  } else {
    F = generateRandomCFGProgram(Seed, 12, 45, 3, 1);
  }
  F->recomputePreds();
  CFGEdges E(*F);
  unsigned Entry = F->entry()->id(), Exit = F->exit()->id();

  Digraph G = cfgDigraph(*F), GR = G.reversed();
  Digraph S = edgeSplitDigraph(*F, E), SR = S.reversed();
  struct {
    DomTree Tree;
    const Digraph &Ref;
    unsigned Root;
  } Cases[] = {{DomTree(*F, DomTree::Forward), G, Entry},
               {DomTree(*F, DomTree::Post), GR, Exit},
               {DomTree(*F, E, DomTree::Forward), S, Entry},
               {DomTree(*F, E, DomTree::Post), SR, Exit}};
  for (const auto &C : Cases) {
    expectMatchesBruteForce(C.Tree, C.Ref, C.Root);
    expectSameChildren(C.Tree, DomTree(C.Ref, C.Root));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DomFunctionTest, ::testing::Range(0, 20));

TEST(DominanceFrontier, DiamondFrontiers) {
  Digraph G(4);
  G.addEdge(0, 1);
  G.addEdge(0, 2);
  G.addEdge(1, 3);
  G.addEdge(2, 3);
  DomTree DT(G, 0);
  auto DF = dominanceFrontiers(DT);
  EXPECT_TRUE(DF[0].empty());
  ASSERT_EQ(DF[1].size(), 1u);
  EXPECT_EQ(DF[1][0], 3u);
  ASSERT_EQ(DF[2].size(), 1u);
  EXPECT_EQ(DF[2][0], 3u);
  EXPECT_TRUE(DF[3].empty());
}

TEST(DominanceFrontier, MatchesDefinitionOnRandomGraphs) {
  // DF(n) = { w : n dominates a pred of w, n does not strictly dominate w }.
  for (std::uint64_t Seed = 0; Seed < 15; ++Seed) {
    RNG Rand(Seed * 13 + 3);
    unsigned N = 5 + unsigned(Rand.nextBelow(8));
    for (const Digraph &G : randomGraphs(Rand, N, N)) {
      DomTree DT(G, 0);
      auto DF = dominanceFrontiers(DT);
      for (unsigned Node = 0; Node != G.numNodes(); ++Node) {
        std::vector<unsigned> Expected;
        for (unsigned W = 0; W != G.numNodes(); ++W) {
          bool DominatesAPred = false;
          for (unsigned P : G.preds(W))
            DominatesAPred |= DT.dominates(Node, P);
          if (DominatesAPred && !DT.strictlyDominates(Node, W))
            Expected.push_back(W);
        }
        EXPECT_EQ(DF[Node], Expected) << "node " << Node << " seed " << Seed;
      }
    }
  }
}

TEST(Digraph, ReverseAndReach) {
  Digraph G(3);
  G.addEdge(0, 1);
  G.addEdge(1, 2);
  EXPECT_TRUE(G.reaches(0, 2));
  EXPECT_FALSE(G.reaches(2, 0));
  Digraph R = G.reversed();
  EXPECT_TRUE(R.reaches(2, 0));
  EXPECT_EQ(R.numEdges(), 2u);
}

TEST(Digraph, EdgeSplitHasDummiesOnEveryEdge) {
  auto F = parseFunctionOrDie(R"(
func f(c) {
a:
  if c goto b else d
b:
  goto d
d:
  ret
}
)");
  CFGEdges E(*F);
  Digraph Split = edgeSplitDigraph(*F, E);
  EXPECT_EQ(Split.numNodes(), F->numBlocks() + E.size());
  EXPECT_EQ(Split.numEdges(), 2 * E.size());
}

} // namespace
