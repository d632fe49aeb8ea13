//===- structure/CycleEquivalence.cpp - O(E) cycle equivalence ------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//
//
// Storage note: the solver is allocation-lean by design. Brackets live in
// one index-stable pool (a vector reserved at its exact pre-counted size,
// 32-bit indices, intrusive doubly-linked bracket lists with O(1) splice),
// and every per-node/per-edge table — adjacency, DFS structure,
// children/backedge lists, list heads — is a flat CSR array carved from a
// single BumpArena. The traversal orders (per-node adjacency,
// children, backedges) are byte-identical to the original vector-of-lists
// formulation, so class ids and all counters are unchanged.
//
//===----------------------------------------------------------------------===//

#include "structure/CycleEquivalence.h"

#include "ir/Function.h"
#include "support/Arena.h"
#include "support/Statistic.h"

#include <algorithm>
#include <limits>

using namespace depflow;

// Complexity telemetry for the paper's O(E) claim: every unit of work the
// bracket algorithm performs is one of these events, so their sum growing
// linearly in E is the empirical check (bench_cycle_equiv fits the slope).
DEPFLOW_STATISTIC(NumCEEdgesVisited, "cycle-equiv",
                  "Undirected edges traversed by the cycle-equivalence DFS");
DEPFLOW_STATISTIC(NumCEBracketPushes, "cycle-equiv",
                  "Brackets pushed onto bracket lists (incl. capping)");
DEPFLOW_STATISTIC(NumCECappingBrackets, "cycle-equiv",
                  "Capping brackets created");
DEPFLOW_STATISTIC(NumCEBracketPops, "cycle-equiv",
                  "Brackets deleted from bracket lists");
DEPFLOW_MAX_STATISTIC(MaxCEBracketList, "cycle-equiv",
                      "Longest bracket list seen at a classification");

namespace {

constexpr unsigned Inf = std::numeric_limits<unsigned>::max();

/// A bracket: a backedge (real or capping) from a descendant to an
/// ancestor, currently spanning the tree edge being classified. Pool
/// resident; Prev/Next link it into its current bracket list, CapNext
/// chains capping brackets that end at the same node.
struct Bracket {
  std::uint32_t DestDfs;   // dfsnum of the ancestor endpoint.
  std::int32_t EdgeIdx;    // Original edge index; -1 for capping brackets.
  std::uint32_t RecentSize; // Size of the bracket set when last on top.
  std::uint32_t RecentClass;
  std::int32_t Prev;
  std::int32_t Next;
  std::int32_t CapNext;
  std::uint8_t RecentValid;
  std::uint8_t InList;
};

/// Head of one node's bracket list (intrusive, via Bracket::Prev/Next).
struct BListHead {
  std::int32_t Head = -1;
  std::int32_t Tail = -1;
  std::uint32_t Size = 0;
};

/// One undirected DFS + bottom-up bracket propagation, as in the PST paper.
class CycleEquivSolver {
  unsigned NumNodes;
  const std::vector<UEdge> &Edges;
  unsigned Root;

  BumpArena Pool;
  std::vector<Bracket> Brackets; // index-stable bracket pool

  // Adjacency CSR: original edge indices of node N at
  // AdjEdge[AdjOff[N]..AdjOff[N+1]), ascending (== the old per-node push
  // order); the neighbor is the edge's other endpoint.
  std::uint32_t *AdjOff = nullptr;
  std::uint32_t *AdjEdge = nullptr;
  std::uint32_t *Scratch = nullptr; // counting-sort fills / DFS cursors

  // DFS structure.
  std::int32_t *DfsNum = nullptr;   // -1 = unvisited.
  std::uint32_t *NodeAt = nullptr;  // dfsnum -> node.
  std::uint32_t NumVisited = 0;
  std::int32_t *ParentEdge = nullptr; // tree edge into node, -1 at root.
  std::uint32_t *BEv = nullptr;       // backedge indices, discovery order
  std::uint32_t NumB = 0;

  // Tree children and backedges per node, CSR, DFS discovery order.
  std::uint32_t *ChildOff = nullptr, *ChildVal = nullptr;
  std::uint32_t *BFOff = nullptr, *BFVal = nullptr; // from node up
  std::uint32_t *BTOff = nullptr, *BTVal = nullptr; // into node from below

  std::int32_t *BracketOfEdge = nullptr; // per original edge, pool index
  std::int32_t *CapsHead = nullptr;      // capping brackets ending here
  BListHead *BLists = nullptr;
  std::uint32_t *Hi = nullptr;

  std::vector<unsigned> ClassOf;
  unsigned NextClass = 0;

  unsigned freshClass() { return NextClass++; }

  void pushFront(BListHead &L, std::int32_t B) {
    Bracket &Br = Brackets[B];
    Br.Prev = -1;
    Br.Next = L.Head;
    if (L.Head >= 0)
      Brackets[L.Head].Prev = B;
    else
      L.Tail = B;
    L.Head = B;
    ++L.Size;
  }

  /// Moves all of \p C to the front of \p L, preserving C's order (the
  /// `L.splice(L.begin(), BList[C])` of the list formulation), O(1).
  void spliceFront(BListHead &L, BListHead &C) {
    if (!C.Size)
      return;
    Brackets[C.Tail].Next = L.Head;
    if (L.Head >= 0)
      Brackets[L.Head].Prev = C.Tail;
    else
      L.Tail = C.Tail;
    L.Head = C.Head;
    L.Size += C.Size;
    C.Head = C.Tail = -1;
    C.Size = 0;
  }

  void erase(BListHead &L, std::int32_t B) {
    Bracket &Br = Brackets[B];
    if (Br.Prev >= 0)
      Brackets[Br.Prev].Next = Br.Next;
    else
      L.Head = Br.Next;
    if (Br.Next >= 0)
      Brackets[Br.Next].Prev = Br.Prev;
    else
      L.Tail = Br.Prev;
    --L.Size;
  }

  /// The other endpoint of edge \p EIdx as seen from \p N.
  unsigned neighborOf(unsigned N, unsigned EIdx) const {
    auto [U, V] = Edges[EIdx];
    return U == N ? V : U;
  }

  /// Exact upper bound on the solver's arena footprint: four offset
  /// arrays, eleven word-per-node tables (one of them the 12-byte list
  /// heads), and six word-per-edge tables (adjacency twice, events,
  /// per-edge bracket, backedge CSR values twice), plus alignment slop.
  static std::size_t arenaBytes(std::size_t N, std::size_t E) {
    return 4 * (N + 1) * 4 + 48 * N + 24 * E + 8 * ((E + 63) / 64) + 512;
  }

public:
  CycleEquivSolver(unsigned NumNodes, const std::vector<UEdge> &Edges,
                   unsigned Root)
      : NumNodes(NumNodes), Edges(Edges), Root(Root),
        Pool(arenaBytes(NumNodes, Edges.size())) {}

  std::vector<unsigned> run(unsigned &NumClasses) {
    ClassOf.assign(Edges.size(), Inf);
    buildAdjacency();
    dfs();
    propagateBrackets();
    NumClasses = NextClass;
    return std::move(ClassOf);
  }

private:
  void buildAdjacency() {
    const unsigned E = unsigned(Edges.size());
    AdjOff = Pool.allocateFilled<std::uint32_t>(NumNodes + 1, 0);
    for (unsigned K = 0; K != E; ++K) {
      auto [U, V] = Edges[K];
      assert(U < NumNodes && V < NumNodes && "edge endpoint out of range");
      if (U == V) {
        // Self-loops form singleton cycles: fresh class, not traversed.
        ClassOf[K] = freshClass();
        continue;
      }
      ++AdjOff[U + 1];
      ++AdjOff[V + 1];
    }
    for (unsigned N = 0; N != NumNodes; ++N)
      AdjOff[N + 1] += AdjOff[N];
    AdjEdge = Pool.allocateArray<std::uint32_t>(AdjOff[NumNodes]);
    Scratch = Pool.allocateArray<std::uint32_t>(NumNodes);
    for (unsigned N = 0; N != NumNodes; ++N)
      Scratch[N] = AdjOff[N];
    for (unsigned K = 0; K != E; ++K) {
      auto [U, V] = Edges[K];
      if (U == V)
        continue;
      AdjEdge[Scratch[U]++] = K;
      AdjEdge[Scratch[V]++] = K;
    }
  }

  void dfs() {
    const unsigned E = unsigned(Edges.size());
    DfsNum = Pool.allocateFilled<std::int32_t>(NumNodes, -1);
    NodeAt = Pool.allocateArray<std::uint32_t>(NumNodes);
    ParentEdge = Pool.allocateFilled<std::int32_t>(NumNodes, -1);
    BEv = Pool.allocateArray<std::uint32_t>(E);

    std::uint64_t *EdgeUsed =
        Pool.allocateFilled<std::uint64_t>((std::size_t(E) + 63) / 64, 0);
    // Scratch doubles as the per-node adjacency cursor; Visit() zeroes it
    // before the node's first step.
    std::uint32_t *Stack = Pool.allocateArray<std::uint32_t>(NumNodes);
    std::uint32_t SP = 0;
    auto Visit = [&](unsigned N) {
      DfsNum[N] = int(NumVisited);
      NodeAt[NumVisited++] = N;
      Scratch[N] = 0;
      Stack[SP++] = N;
    };
    Visit(Root);
    while (SP) {
      unsigned N = Stack[SP - 1];
      if (AdjOff[N] + Scratch[N] >= AdjOff[N + 1]) {
        --SP;
        continue;
      }
      unsigned EIdx = AdjEdge[AdjOff[N] + Scratch[N]++];
      unsigned M = neighborOf(N, EIdx);
      if ((EdgeUsed[EIdx >> 6] >> (EIdx & 63)) & 1)
        continue;
      EdgeUsed[EIdx >> 6] |= std::uint64_t(1) << (EIdx & 63);
      ++NumCEEdgesVisited;
      if (DfsNum[M] < 0) {
        ParentEdge[M] = int(EIdx);
        Visit(M);
      } else {
        // Undirected DFS yields only ancestor/descendant non-tree edges.
        BEv[NumB++] = EIdx;
      }
    }

    buildTreeCSRs();
  }

  /// Descendant (larger dfsnum) endpoint of backedge \p EIdx.
  unsigned srcNode(unsigned EIdx) const {
    auto [U, V] = Edges[EIdx];
    return DfsNum[U] > DfsNum[V] ? U : V;
  }
  /// Ancestor (smaller dfsnum) endpoint of backedge \p EIdx.
  unsigned dstNode(unsigned EIdx) const {
    auto [U, V] = Edges[EIdx];
    return DfsNum[U] < DfsNum[V] ? U : V;
  }

  /// Per-node children and backedge lists as CSR arrays, reconstructed
  /// from the DFS by stable counting sorts so each node's order is exactly
  /// the discovery order (the old per-node push order): children are
  /// NodeAt[1..) grouped by parent; backedges are BEv grouped by each
  /// endpoint.
  void buildTreeCSRs() {
    ChildOff = Pool.allocateFilled<std::uint32_t>(NumNodes + 1, 0);
    BFOff = Pool.allocateFilled<std::uint32_t>(NumNodes + 1, 0);
    BTOff = Pool.allocateFilled<std::uint32_t>(NumNodes + 1, 0);
    for (std::uint32_t I = 1; I < NumVisited; ++I)
      ++ChildOff[neighborOf(NodeAt[I], unsigned(ParentEdge[NodeAt[I]])) + 1];
    for (std::uint32_t I = 0; I != NumB; ++I) {
      ++BFOff[srcNode(BEv[I]) + 1];
      ++BTOff[dstNode(BEv[I]) + 1];
    }
    for (unsigned N = 0; N != NumNodes; ++N) {
      ChildOff[N + 1] += ChildOff[N];
      BFOff[N + 1] += BFOff[N];
      BTOff[N + 1] += BTOff[N];
    }
    ChildVal =
        Pool.allocateArray<std::uint32_t>(NumVisited ? NumVisited - 1 : 0);
    BFVal = Pool.allocateArray<std::uint32_t>(NumB);
    BTVal = Pool.allocateArray<std::uint32_t>(NumB);
    for (unsigned N = 0; N != NumNodes; ++N)
      Scratch[N] = ChildOff[N];
    for (std::uint32_t I = 1; I < NumVisited; ++I) {
      unsigned M = NodeAt[I];
      ChildVal[Scratch[neighborOf(M, unsigned(ParentEdge[M]))]++] = M;
    }
    for (unsigned N = 0; N != NumNodes; ++N)
      Scratch[N] = BFOff[N];
    for (std::uint32_t I = 0; I != NumB; ++I)
      BFVal[Scratch[srcNode(BEv[I])]++] = BEv[I];
    for (unsigned N = 0; N != NumNodes; ++N)
      Scratch[N] = BTOff[N];
    for (std::uint32_t I = 0; I != NumB; ++I)
      BTVal[Scratch[dstNode(BEv[I])]++] = BEv[I];
  }

  /// Ancestor endpoint (smaller dfsnum) of backedge \p EIdx.
  unsigned destDfs(unsigned EIdx) const {
    auto [U, V] = Edges[EIdx];
    return unsigned(std::min(DfsNum[U], DfsNum[V]));
  }

  void propagateBrackets() {
    const unsigned E = unsigned(Edges.size());
    Hi = Pool.allocateFilled<std::uint32_t>(NumNodes, Inf);
    BracketOfEdge = Pool.allocateFilled<std::int32_t>(E, -1);
    CapsHead = Pool.allocateFilled<std::int32_t>(NumNodes, -1);
    BLists = Pool.allocateFilled<BListHead>(NumNodes, BListHead{});
    // Exact bracket count: one bracket per backedge, plus one capping
    // bracket per node whose second-smallest child hi reaches above it. A
    // bottom-up Hi pre-pass (same recurrence as the main loop, which then
    // harmlessly recomputes Hi) counts the capping brackets, so the pool is
    // sized in a single exactly-fitting allocation.
    std::uint32_t NumCaps = 0;
    for (unsigned I = NumVisited; I-- > 0;) {
      unsigned N = NodeAt[I];
      unsigned Hi0 = Inf;
      for (std::uint32_t BI = BFOff[N]; BI != BFOff[N + 1]; ++BI)
        Hi0 = std::min(Hi0, destDfs(BFVal[BI]));
      unsigned Hi1 = Inf, Hi2 = Inf;
      for (std::uint32_t CI = ChildOff[N]; CI != ChildOff[N + 1]; ++CI) {
        unsigned H = Hi[ChildVal[CI]];
        if (H < Hi1) {
          Hi2 = Hi1;
          Hi1 = H;
        } else {
          Hi2 = std::min(Hi2, H);
        }
      }
      Hi[N] = std::min(Hi0, Hi1);
      if (Hi2 < unsigned(DfsNum[N]))
        ++NumCaps;
    }
    Brackets.reserve(NumB + NumCaps);

    for (unsigned I = NumVisited; I-- > 0;) {
      unsigned N = NodeAt[I];

      // hi0: highest (smallest dfsnum) destination of a backedge from N.
      unsigned Hi0 = Inf;
      for (std::uint32_t BI = BFOff[N]; BI != BFOff[N + 1]; ++BI)
        Hi0 = std::min(Hi0, destDfs(BFVal[BI]));
      // hi1/hi2: smallest and second-smallest hi among children.
      unsigned Hi1 = Inf, Hi2 = Inf;
      for (std::uint32_t CI = ChildOff[N]; CI != ChildOff[N + 1]; ++CI) {
        unsigned H = Hi[ChildVal[CI]];
        if (H < Hi1) {
          Hi2 = Hi1;
          Hi1 = H;
        } else {
          Hi2 = std::min(Hi2, H);
        }
      }
      Hi[N] = std::min(Hi0, Hi1);

      // Build this node's bracket list: concat children, then delete
      // brackets ending here, then push brackets starting here.
      BListHead &L = BLists[N];
      for (std::uint32_t CI = ChildOff[N]; CI != ChildOff[N + 1]; ++CI)
        spliceFront(L, BLists[ChildVal[CI]]);

      for (std::int32_t Cap = CapsHead[N]; Cap >= 0;
           Cap = Brackets[Cap].CapNext) {
        if (Brackets[Cap].InList) {
          erase(L, Cap);
          Brackets[Cap].InList = 0;
          ++NumCEBracketPops;
        }
      }
      for (std::uint32_t BI = BTOff[N]; BI != BTOff[N + 1]; ++BI) {
        unsigned B = BTVal[BI];
        std::int32_t Br = BracketOfEdge[B];
        assert(Br >= 0 && Brackets[Br].InList &&
               "backedge bracket must be pending");
        erase(L, Br);
        Brackets[Br].InList = 0;
        ++NumCEBracketPops;
        if (ClassOf[B] == Inf)
          ClassOf[B] = freshClass();
      }
      for (std::uint32_t BI = BFOff[N]; BI != BFOff[N + 1]; ++BI) {
        unsigned B = BFVal[BI];
        std::int32_t Idx = std::int32_t(Brackets.size());
        Brackets.push_back(
            {destDfs(B), int(B), 0, 0, -1, -1, -1, 0, 1});
        pushFront(L, Idx);
        ++NumCEBracketPushes;
        BracketOfEdge[B] = Idx;
      }
      if (Hi2 < unsigned(DfsNum[N])) {
        // Two subtrees independently reach above N: add a capping bracket
        // to the second-highest target so sibling bracket sets cannot be
        // confused above N.
        std::int32_t Idx = std::int32_t(Brackets.size());
        unsigned CapNode = NodeAt[Hi2];
        Brackets.push_back({Hi2, -1, 0, 0, -1, -1, CapsHead[CapNode], 0, 1});
        pushFront(L, Idx);
        ++NumCEBracketPushes;
        ++NumCECappingBrackets;
        CapsHead[CapNode] = Idx;
      }

      // Classify the tree edge from parent(N) to N.
      if (ParentEdge[N] >= 0) {
        unsigned Ed = unsigned(ParentEdge[N]);
        MaxCEBracketList.update(L.Size);
        if (!L.Size) {
          // Bridge: singleton class.
          ClassOf[Ed] = freshClass();
          continue;
        }
        Bracket &Top = Brackets[L.Head];
        if (!Top.RecentValid || Top.RecentSize != L.Size) {
          Top.RecentSize = L.Size;
          Top.RecentClass = freshClass();
          Top.RecentValid = 1;
        }
        ClassOf[Ed] = Top.RecentClass;
        // A sole bracket is cycle equivalent to the tree edge it spans.
        if (L.Size == 1 && Top.EdgeIdx >= 0)
          ClassOf[unsigned(Top.EdgeIdx)] = ClassOf[Ed];
      }
    }
  }
};

} // namespace

std::vector<unsigned> depflow::undirectedCycleEquivalence(
    unsigned NumNodes, const std::vector<UEdge> &Edges, unsigned Root,
    unsigned &NumClasses) {
  CycleEquivSolver Solver(NumNodes, Edges, Root);
  return Solver.run(NumClasses);
}

CycleEquivalence depflow::cycleEquivalenceClasses(const Function &F,
                                                  const CFGEdges &Edges) {
  BasicBlock *Exit = F.exit();
  assert(Exit && "cycle equivalence requires a unique exit block");
  std::vector<UEdge> UEdges;
  UEdges.reserve(Edges.size() + 1);
  for (unsigned Id = 0, E = Edges.size(); Id != E; ++Id)
    UEdges.push_back({Edges.edge(Id).From->id(), Edges.edge(Id).To->id()});
  // The augmenting end→start edge that makes the graph strongly connected.
  UEdges.push_back({Exit->id(), F.entry()->id()});

  CycleEquivalence CE;
  std::vector<unsigned> All = undirectedCycleEquivalence(
      F.numBlocks(), UEdges, F.entry()->id(), CE.NumClasses);
  CE.VirtualClass = All.back();
  All.pop_back();
  CE.ClassOf = std::move(All);
  return CE;
}

std::vector<unsigned> depflow::bruteForceDirectedCycleEquivalence(
    unsigned NumNodes, const std::vector<UEdge> &DirectedEdges,
    unsigned &NumClasses) {
  unsigned E = unsigned(DirectedEdges.size());

  // Reachability From→To in the graph minus one edge.
  auto ReachesWithout = [&](unsigned From, unsigned To, unsigned SkipEdge) {
    std::vector<std::vector<unsigned>> Succ(NumNodes);
    for (unsigned K = 0; K != E; ++K)
      if (K != SkipEdge)
        Succ[DirectedEdges[K].first].push_back(DirectedEdges[K].second);
    std::vector<bool> Seen(NumNodes, false);
    std::vector<unsigned> Stack{From};
    Seen[From] = true;
    while (!Stack.empty()) {
      unsigned N = Stack.back();
      Stack.pop_back();
      if (N == To)
        return true;
      for (unsigned S : Succ[N]) {
        if (!Seen[S]) {
          Seen[S] = true;
          Stack.push_back(S);
        }
      }
    }
    return bool(Seen[To]);
  };

  // EquivTo[K][J]: every cycle through K passes through J (and conversely).
  std::vector<unsigned> Class(E, Inf);
  unsigned Next = 0;
  for (unsigned K = 0; K != E; ++K) {
    if (Class[K] != Inf)
      continue;
    Class[K] = Next++;
    auto [A, B] = DirectedEdges[K];
    for (unsigned J = K + 1; J != E; ++J) {
      if (Class[J] != Inf)
        continue;
      auto [C, D] = DirectedEdges[J];
      // Self-loops are equivalent only to themselves.
      if (A == B || C == D)
        continue;
      if (!ReachesWithout(B, A, J) && !ReachesWithout(D, C, K))
        Class[J] = Class[K];
    }
  }
  NumClasses = Next;
  return Class;
}
