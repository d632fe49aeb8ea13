//===- tests/arena_test.cpp - Arena and flat-storage tests ----------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
// The contracts the struct-of-arrays kernels stand on: BumpArena alignment
// and growth across chunk boundaries, reset-and-reuse (with ASan poisoning
// when compiled in), the worklist ring agreeing with a reference queue on
// both of its storage origins, and a moved DepFlowGraph answering every
// query as before the move.
//
//===----------------------------------------------------------------------===//

#include "core/DepFlowGraph.h"
#include "ParseOrDie.h"
#include "support/Arena.h"
#include "support/Worklist.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <optional>
#include <random>
#include <set>
#include <tuple>
#include <vector>

using namespace depflow;

namespace {

//===----------------------------------------------------------------------===//
// BumpArena
//===----------------------------------------------------------------------===//

TEST(BumpArena, RespectsAlignment) {
  BumpArena A(256);
  // Interleave odd-sized byte requests with aligned ones so the bump
  // pointer is repeatedly left misaligned.
  for (unsigned I = 0; I != 64; ++I) {
    (void)A.allocate(1 + (I % 3), 1);
    for (std::size_t Align : {2, 4, 8, 16}) {
      void *P = A.allocate(Align * 2, Align);
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(P) % Align, 0u)
          << "align " << Align << " iteration " << I;
    }
  }
}

TEST(BumpArena, GrowsAcrossChunkBoundariesKeepingOldData) {
  BumpArena A(64); // Tiny first chunk: every few arrays force a new one.
  std::vector<std::uint32_t *> Arrays;
  for (std::uint32_t I = 0; I != 200; ++I) {
    std::uint32_t *P = A.allocateFilled<std::uint32_t>(17, I);
    Arrays.push_back(P);
  }
  // Earlier arrays live in earlier chunks; every value must have survived
  // the growth.
  for (std::uint32_t I = 0; I != 200; ++I)
    for (unsigned J = 0; J != 17; ++J)
      ASSERT_EQ(Arrays[I][J], I);
  EXPECT_GE(A.bytesAllocated(), 200u * 17u * sizeof(std::uint32_t));
  EXPECT_GE(A.bytesReserved(), A.bytesAllocated());
}

TEST(BumpArena, OversizedRequestGetsItsOwnChunk) {
  BumpArena A(64);
  std::uint64_t *Big = A.allocateFilled<std::uint64_t>(4096, 7);
  for (unsigned I = 0; I != 4096; ++I)
    ASSERT_EQ(Big[I], 7u);
}

TEST(BumpArena, ResetRewindsAndReuses) {
  BumpArena A(128);
  for (unsigned I = 0; I != 50; ++I)
    (void)A.allocateArray<std::uint64_t>(32);
  std::uint64_t ReservedBefore = A.bytesReserved();
  A.reset();
  EXPECT_EQ(A.bytesAllocated(), 0u);
  // Only the newest (largest) chunk survives a reset.
  EXPECT_LE(A.bytesReserved(), ReservedBefore);
  EXPECT_GT(A.bytesReserved(), 0u);
  // The retained chunk serves the next generation without growing when the
  // request fits.
  std::uint64_t ReservedAfterReset = A.bytesReserved();
  std::uint32_t *P = A.allocateFilled<std::uint32_t>(8, 3);
  for (unsigned I = 0; I != 8; ++I)
    ASSERT_EQ(P[I], 3u);
  EXPECT_EQ(A.bytesReserved(), ReservedAfterReset);
}

TEST(BumpArena, ResetPoisonsRetainedChunkUnderASan) {
  if (!BumpArena::poisoningActive())
    GTEST_SKIP() << "manual ASan poisoning not compiled in";
  BumpArena A(256);
  char *P = A.allocateArray<char>(64);
  EXPECT_FALSE(BumpArena::addressIsPoisoned(P));
  A.reset();
  // P now dangles into the retained-but-rewound chunk; ASan must consider
  // it poisoned so a stale read faults instead of yielding old bytes.
  EXPECT_TRUE(BumpArena::addressIsPoisoned(P));
  char *Q = A.allocateArray<char>(16);
  EXPECT_FALSE(BumpArena::addressIsPoisoned(Q));
}

TEST(BumpArena, MoveKeepsPointersValid) {
  BumpArena A(128);
  std::uint32_t *P = A.allocateFilled<std::uint32_t>(16, 42);
  BumpArena B(std::move(A));
  for (unsigned I = 0; I != 16; ++I)
    ASSERT_EQ(P[I], 42u); // Chunks are heap-stable across the move.
  std::uint32_t *Q = B.allocateFilled<std::uint32_t>(4, 9);
  EXPECT_EQ(Q[0], 9u);
}

//===----------------------------------------------------------------------===//
// ScratchBlock
//===----------------------------------------------------------------------===//

TEST(ScratchBlock, RemainingCountsTheUncarvedBytes) {
  ScratchBlock B(ScratchBlock::bytesFor<std::uint32_t>(3) +
                 ScratchBlock::bytesFor<std::uint64_t>(2));
  EXPECT_EQ(B.remaining(), 32u);
  std::uint32_t *P = B.takeFilled<std::uint32_t>(3, 7); // 12 bytes -> 16
  EXPECT_EQ(B.remaining(), 16u);
  EXPECT_EQ(P[2], 7u);
  std::uint64_t *Q = B.takeFilled<std::uint64_t>(2, 9);
  EXPECT_EQ(B.remaining(), 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(Q) % 8, 0u);
  EXPECT_EQ(ScratchBlock().remaining(), 0u);
}

TEST(ScratchBlock, PoisonsPaddingAndTheUncarvedTailUnderASan) {
  if (!BumpArena::poisoningActive())
    GTEST_SKIP() << "ASan poisoning is not compiled in";
  ScratchBlock B(64);
  auto *Bytes = reinterpret_cast<const char *>(B.take<std::uint32_t>(3));
  EXPECT_FALSE(BumpArena::addressIsPoisoned(Bytes + 11));
  EXPECT_TRUE(BumpArena::addressIsPoisoned(Bytes + 12)); // rounding padding
  EXPECT_TRUE(BumpArena::addressIsPoisoned(Bytes + 16)); // uncarved tail
  B.take<std::uint64_t>(1);
  EXPECT_FALSE(BumpArena::addressIsPoisoned(Bytes + 16));
  EXPECT_TRUE(BumpArena::addressIsPoisoned(Bytes + 63));
}

//===----------------------------------------------------------------------===//
// Worklist
//===----------------------------------------------------------------------===//

/// Drives \p WL and a deque + set reference model through one seeded
/// push/pop sequence and checks every pop and size against the model.
/// Phases of 1000 steps alternate between mostly pushing (the queue fills
/// up, so most pushes re-push a pending id) and mostly popping (it
/// drains), so the ring wraps many times in both states.
void expectMatchesModel(Worklist &WL, unsigned Universe, unsigned Seed) {
  std::deque<unsigned> Queue;
  std::set<unsigned> Pending;
  std::mt19937 Rng(Seed);
  unsigned Pops = 0, PendingRepushes = 0;
  for (unsigned Step = 0; Step != 20000; ++Step) {
    const unsigned PushesOutOfFive = (Step / 1000) % 2 ? 1 : 4;
    if (Queue.empty() || Rng() % 5 < PushesOutOfFive) {
      const unsigned N = unsigned(Rng() % Universe);
      if (Pending.insert(N).second)
        Queue.push_back(N);
      else
        ++PendingRepushes;
      WL.push(N);
    } else {
      const unsigned Expected = Queue.front();
      Queue.pop_front();
      Pending.erase(Expected);
      ASSERT_EQ(WL.pop(), Expected) << "step " << Step;
      ++Pops;
    }
    ASSERT_EQ(WL.size(), Queue.size()) << "step " << Step;
    ASSERT_EQ(WL.empty(), Queue.empty()) << "step " << Step;
  }
  for (; !Queue.empty(); Queue.pop_front(), ++Pops)
    ASSERT_EQ(WL.pop(), Queue.front());
  EXPECT_TRUE(WL.empty());
  EXPECT_GE(Pops, 10 * Universe) << "the ring must wrap several times";
  EXPECT_GE(PendingRepushes, 1000u) << "pending ids must be re-pushed";
}

TEST(Worklist, OwnedStorageMatchesReferenceModel) {
  for (unsigned Universe : {1u, 37u, 64u, 300u}) {
    Worklist WL(Universe);
    expectMatchesModel(WL, Universe, 7 + Universe);
  }
}

TEST(Worklist, ArenaStorageMatchesReferenceModel) {
  for (unsigned Universe : {1u, 37u, 64u, 300u}) {
    BumpArena Pool(64);
    Worklist WL(Pool, Universe);
    expectMatchesModel(WL, Universe, 7 + Universe);
  }
}

//===----------------------------------------------------------------------===//
// DepFlowGraph relocation
//===----------------------------------------------------------------------===//

/// Everything a client can ask a DepFlowGraph, read into plain values.
struct GraphAnswers {
  std::vector<std::tuple<DepFlowGraph::NodeKind, VarId, const Instruction *,
                         unsigned, const BasicBlock *>>
      Nodes;
  std::vector<std::tuple<unsigned, unsigned, VarId, unsigned, unsigned>>
      Edges;
  std::vector<std::vector<std::uint32_t>> Out, In;
  std::vector<std::pair<unsigned, unsigned>> VarSlices;

  explicit GraphAnswers(const DepFlowGraph &G) {
    for (unsigned N = 0; N != G.numNodes(); ++N) {
      const DepFlowGraph::Node Nd = G.node(N);
      Nodes.emplace_back(Nd.Kind, Nd.Var, Nd.Inst, Nd.OpIdx, Nd.Block);
      Out.emplace_back(G.outEdges(N).begin(), G.outEdges(N).end());
      In.emplace_back(G.inEdges(N).begin(), G.inEdges(N).end());
    }
    for (unsigned E = 0; E != G.numEdges(); ++E) {
      const DepFlowGraph::Edge &Ed = G.edge(E);
      Edges.emplace_back(Ed.Src, Ed.Dst, Ed.Var, Ed.SrcPort, Ed.DstPort);
    }
    for (VarId V = 0; V <= G.controlVar(); ++V) {
      const DepFlowGraph::EdgeIdRange R = G.edgesOfVar(V);
      VarSlices.emplace_back(R.first(), R.size());
    }
  }

  bool operator==(const GraphAnswers &) const = default;
};

const char *kLoopSource = R"(func f(n) {
entry:
  i = 0
  s = 0
  goto head
head:
  c = i < n
  if c goto body else done
body:
  t = i + i
  if t goto odd else even
odd:
  s = s + i
  goto latch
even:
  s = s - 1
  goto latch
latch:
  i = i + 1
  goto head
done:
  ret s
})";

TEST(DepFlowGraph, MovedGraphAnswersAsBefore) {
  auto F = parseFunctionOrDie(kLoopSource);
  DepFlowGraph Built = DepFlowGraph::build(*F);
  ASSERT_GT(Built.numNodes(), 0u);
  ASSERT_GT(Built.numEdges(), 0u);
  const GraphAnswers Before(Built);

  // The analysis manager's slot: an optional the result is moved into.
  std::optional<DepFlowGraph> Slot;
  Slot.emplace(std::move(Built));
  EXPECT_TRUE(GraphAnswers(*Slot) == Before);

  // Move-assign over a graph that already owns columns of its own.
  auto Other =
      parseFunctionOrDie("func g(p) {\nentry:\n  x = p + 1\n  ret x\n}");
  DepFlowGraph Assigned = DepFlowGraph::build(*Other);
  Assigned = std::move(*Slot);
  Slot.reset();
  EXPECT_TRUE(GraphAnswers(Assigned) == Before);
}

} // namespace
