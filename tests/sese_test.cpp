//===- tests/sese_test.cpp - SESE region and PST tests --------------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
// Validates Theorem 1 of the paper: edges are in the same cycle-equivalence
// class iff they bound single-entry single-exit regions, i.e. consecutive
// class members (e1, e2) satisfy e1 dom e2 and e2 pdom e1; and the PST's
// block/edge containment matches the dominance-based definition. The PST
// orders each class by search order; a property test holds that order
// against a sort by edge-split dominance over a DomTree.
//
//===----------------------------------------------------------------------===//

#include "graph/Dominators.h"
#include "ParseOrDie.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Transforms.h"
#include "structure/SESE.h"
#include "workload/Generators.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

using namespace depflow;

namespace {

struct Analysis {
  std::unique_ptr<Function> F;
  std::unique_ptr<CFGEdges> E;
  CycleEquivalence CE;
  std::unique_ptr<ProgramStructureTree> PST;
  // The edge-split graph and its reverse. Dominance is checked by brute
  // force over them, independently of the search order the PST sorts with.
  Digraph Split, SplitRev;

  explicit Analysis(std::unique_ptr<Function> Fn) : F(std::move(Fn)) {
    F->recomputePreds();
    E = std::make_unique<CFGEdges>(*F);
    CE = cycleEquivalenceClasses(*F, *E);
    PST = std::make_unique<ProgramStructureTree>(*F, *E, CE);
    Split = edgeSplitDigraph(*F, *E);
    SplitRev = Split.reversed();
  }

  bool dom(unsigned A, unsigned B) const {
    return bruteForceDominates(Split, F->entry()->id(), A, B);
  }
  bool pdom(unsigned A, unsigned B) const {
    return bruteForceDominates(SplitRev, F->exit()->id(), A, B);
  }

  unsigned edgeNode(unsigned EdgeId) const {
    return F->numBlocks() + EdgeId;
  }
};

TEST(SESE, WhileLoopRegions) {
  Analysis A(parseFunctionOrDie(R"(
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
)"));
  // Regions: root, the loop (entry->head .. head->out), the body
  // (head->body .. body->head).
  ASSERT_EQ(A.PST->numRegions(), 3u);
  const SESERegion &Loop = A.PST->region(1);
  const SESERegion &Body = A.PST->region(2);
  // Region 1 discovered first must be the loop (its entry edge is edge 0).
  EXPECT_EQ(Loop.EntryEdge, 0);
  EXPECT_EQ(Loop.Parent, 0);
  EXPECT_EQ(Body.Parent, int(Loop.Id));
  EXPECT_EQ(Body.Depth, 2u);
  // head and out: head inside loop; body inside body region; out at root.
  unsigned HeadId = 1, BodyId = 2, OutId = 3;
  EXPECT_EQ(A.PST->regionOfBlock(HeadId), Loop.Id);
  EXPECT_EQ(A.PST->regionOfBlock(BodyId), Body.Id);
  EXPECT_EQ(A.PST->regionOfBlock(OutId), 0u);
}

TEST(SESE, DiamondRegions) {
  Analysis A(parseFunctionOrDie(R"(
func f(c) {
entry:
  x = 1
  if c goto t else e
t:
  goto join
e:
  goto join
join:
  ret x
}
)"));
  // Classes {entry->t, t->join} and {entry->e, e->join} give two regions:
  // each branch arm. The diamond as a whole has no single entry edge here
  // (entry is the function entry), so there are exactly 3 regions.
  ASSERT_EQ(A.PST->numRegions(), 3u);
  EXPECT_EQ(A.PST->region(1).Parent, 0);
  EXPECT_EQ(A.PST->region(2).Parent, 0);
}

TEST(SESE, SequentialDiamondsShareClassBoundaries) {
  Analysis A(generateDiamondChain(4, 3, 7));
  // Every region's entry dominates its exit and exit postdominates entry.
  for (unsigned R = 1; R != A.PST->numRegions(); ++R) {
    const SESERegion &Reg = A.PST->region(R);
    unsigned In = A.edgeNode(unsigned(Reg.EntryEdge));
    unsigned Out = A.edgeNode(unsigned(Reg.ExitEdge));
    EXPECT_TRUE(A.dom(In, Out));
    EXPECT_TRUE(A.pdom(Out, In));
  }
}

class SESEPropertyTest : public ::testing::TestWithParam<int> {};

/// Theorem 1, tested structurally: consecutive same-class edges must bound
/// regions satisfying dominance and postdominance; and every same-class
/// pair must be dominance-ordered.
TEST_P(SESEPropertyTest, Theorem1DominanceConditions) {
  std::uint64_t Seed = std::uint64_t(GetParam());
  std::unique_ptr<Function> F;
  if (GetParam() % 2 == 0) {
    GenOptions Opts;
    Opts.Seed = Seed;
    Opts.TargetStmts = 18;
    F = generateStructuredProgram(Opts);
  } else {
    F = generateRandomCFGProgram(Seed, 12, 45, 3, 1);
  }
  Analysis A(std::move(F));

  unsigned NE = A.E->size();
  for (unsigned X = 0; X != NE; ++X) {
    for (unsigned Y = X + 1; Y != NE; ++Y) {
      if (!A.CE.sameClass(X, Y))
        continue;
      unsigned NX = A.edgeNode(X), NY = A.edgeNode(Y);
      bool XDomY = A.dom(NX, NY);
      bool YDomX = A.dom(NY, NX);
      EXPECT_TRUE(XDomY || YDomX)
          << "same-class edges " << X << "," << Y
          << " not dominance ordered\n"
          << printFunction(*A.F);
      // The dominated one postdominates the dominator (SESE pair).
      if (XDomY)
        EXPECT_TRUE(A.pdom(NY, NX));
      else
        EXPECT_TRUE(A.pdom(NX, NY));
    }
  }

  // Converse direction: a dominance-ordered pair with mutual dom/pdom and
  // cycle equivalence already established by class equality; here check
  // that any pair satisfying dom+pdom+cycle-equivalence IS in one class.
  // (dom+pdom alone is not enough; the cycle condition comes from CE.)
  for (unsigned R = 1; R != A.PST->numRegions(); ++R) {
    const SESERegion &Reg = A.PST->region(R);
    EXPECT_TRUE(A.CE.sameClass(unsigned(Reg.EntryEdge),
                               unsigned(Reg.ExitEdge)));
  }
}

TEST_P(SESEPropertyTest, RegionContainmentMatchesDominance) {
  std::uint64_t Seed = std::uint64_t(GetParam());
  GenOptions Opts;
  Opts.Seed = Seed * 31 + 1;
  Opts.TargetStmts = 20;
  Analysis A(generateStructuredProgram(Opts));

  // A block b lies inside region (e1, e2) iff e1 dom b and e2 pdom b.
  // The PST's innermost region must be a region containing b of maximal
  // depth.
  for (const auto &BB : A.F->blocks()) {
    unsigned B = BB->id();
    unsigned Best = 0;
    unsigned BestDepth = 0;
    for (unsigned R = 1; R != A.PST->numRegions(); ++R) {
      const SESERegion &Reg = A.PST->region(R);
      if (A.dom(A.edgeNode(unsigned(Reg.EntryEdge)), B) &&
          A.pdom(A.edgeNode(unsigned(Reg.ExitEdge)), B) &&
          Reg.Depth > BestDepth) {
        Best = R;
        BestDepth = Reg.Depth;
      }
    }
    EXPECT_EQ(A.PST->regionOfBlock(B), Best)
        << "block " << BB->label() << "\n"
        << printFunction(*A.F) << A.PST->dump(*A.F, *A.E);
  }
}

TEST_P(SESEPropertyTest, PSTParentsAreEnclosing) {
  std::uint64_t Seed = std::uint64_t(GetParam());
  std::unique_ptr<Function> F = generateRandomCFGProgram(
      Seed * 7 + 2, 14, 50, 3, 1);
  Analysis A(std::move(F));
  for (unsigned R = 1; R != A.PST->numRegions(); ++R) {
    const SESERegion &Reg = A.PST->region(R);
    ASSERT_GE(Reg.Parent, 0);
    const SESERegion &Par = A.PST->region(unsigned(Reg.Parent));
    EXPECT_EQ(Par.Depth + 1, Reg.Depth);
    if (Par.Id != 0) {
      // Parent entry must dominate child's entry, parent exit postdominate
      // child's exit.
      EXPECT_TRUE(A.dom(A.edgeNode(unsigned(Par.EntryEdge)),
                        A.edgeNode(unsigned(Reg.EntryEdge))));
      EXPECT_TRUE(A.pdom(A.edgeNode(unsigned(Par.ExitEdge)),
                         A.edgeNode(unsigned(Reg.ExitEdge))));
    }
    EXPECT_TRUE(A.PST->encloses(unsigned(Reg.Parent), R));
    EXPECT_TRUE(A.PST->encloses(0, R));
    EXPECT_FALSE(A.PST->encloses(R, unsigned(Reg.Parent)));
  }
}

/// Canonical regions as a dominator tree orders them: every class sorted
/// by dominance over the edge-split graph (node NB + e is CFG edge e), one
/// region per consecutive pair, classes in id order.
std::vector<std::pair<int, int>>
dominanceOrderedRegions(const Function &F, const CFGEdges &E,
                        const CycleEquivalence &CE) {
  const unsigned NB = F.numBlocks();
  DomTree Dom(F, E, DomTree::Forward);
  std::vector<std::vector<unsigned>> Classes(CE.NumClasses);
  for (unsigned Id = 0; Id != E.size(); ++Id)
    Classes[CE.ClassOf[Id]].push_back(Id);
  std::vector<std::pair<int, int>> Regions;
  for (std::vector<unsigned> &C : Classes) {
    std::sort(C.begin(), C.end(), [&](unsigned A, unsigned B) {
      return Dom.strictlyDominates(NB + A, NB + B);
    });
    for (std::size_t I = 0; I + 1 < C.size(); ++I) {
      EXPECT_TRUE(Dom.strictlyDominates(NB + C[I], NB + C[I + 1]))
          << "class not totally ordered by dominance";
      Regions.push_back({int(C[I]), int(C[I + 1])});
    }
  }
  return Regions;
}

TEST_P(SESEPropertyTest, SearchOrderEqualsDominanceOrder) {
  const std::uint64_t Seed = std::uint64_t(GetParam());
  GenOptions Opts;
  Opts.Seed = Seed * 13 + 5;
  Opts.TargetStmts = 40;
  std::vector<std::unique_ptr<Function>> Fs;
  Fs.push_back(generateStructuredProgram(Opts));
  Fs.push_back(generateRandomCFGProgram(Seed * 11 + 3, 16, 60, 3, 1));
  Fs.push_back(generateNestedLoops(1 + unsigned(Seed % 3), 2, 3, Seed));
  for (std::unique_ptr<Function> &F : Fs)
    for (bool Split : {false, true}) {
      if (Split)
        splitCriticalEdges(*F);
      F->recomputePreds();
      CFGEdges E(*F);
      CycleEquivalence CE = cycleEquivalenceClasses(*F, E);
      ProgramStructureTree PST(*F, E, CE);
      std::vector<std::pair<int, int>> Want =
          dominanceOrderedRegions(*F, E, CE);
      ASSERT_EQ(PST.numRegions(), Want.size() + 1) << printFunction(*F);
      for (unsigned R = 1; R != PST.numRegions(); ++R) {
        EXPECT_EQ(PST.region(R).EntryEdge, Want[R - 1].first)
            << "region " << R << "\n" << printFunction(*F);
        EXPECT_EQ(PST.region(R).ExitEdge, Want[R - 1].second)
            << "region " << R << "\n" << printFunction(*F);
      }
      // Every region but the root is some region's child, once.
      std::vector<unsigned> Seen(PST.numRegions(), 0);
      for (unsigned R = 0; R != PST.numRegions(); ++R)
        for (std::uint32_t C : PST.children(R)) {
          EXPECT_EQ(PST.region(C).Parent, int(R));
          ++Seen[C];
        }
      for (unsigned R = 1; R != PST.numRegions(); ++R)
        EXPECT_EQ(Seen[R], 1u) << "region " << R;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SESEPropertyTest, ::testing::Range(0, 30));

} // namespace
