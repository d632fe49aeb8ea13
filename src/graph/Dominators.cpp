//===- graph/Dominators.cpp - Dominator trees -----------------------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "graph/Dominators.h"

#include "ir/CFGEdges.h"
#include "ir/Function.h"

#include <algorithm>
#include <cassert>

using namespace depflow;

/// Builds every table from the graph that \p Edges enumerates: it calls its
/// argument once per edge as (From, To), twice over, in the same order
/// each time. \p Reverse flips every edge. Within a node, successors and
/// predecessors keep the enumeration order, so a post tree's successors
/// list the CFG predecessors in enumeration order, as `Digraph::reversed()`
/// would. The fixpoint's result does not depend on the predecessor order;
/// the child order is the reverse postorder of the successor-ordered DFS.
template <typename ForEachEdge>
void DomTree::build(unsigned NumEdges, bool Reverse, ForEachEdge Edges) {
  const std::size_t N = NumNodes, NE = NumEdges;
  const std::size_t Words = 3 * (N + 1) + 2 * NE + 8 * N;
  Storage.reset(new unsigned[Words]()); // zeroed: the CSR counts start at 0
  unsigned *Next = Storage.get();
  auto Take = [&](std::size_t Len) {
    unsigned *A = Next;
    Next += Len;
    return A;
  };
  auto Oriented = [&](auto Fn) {
    Edges([&](unsigned From, unsigned To) {
      if (Reverse)
        Fn(To, From);
      else
        Fn(From, To);
    });
  };

  // Successor and predecessor CSRs.
  unsigned *SuccOff = Take(N + 1), *SuccVal = Take(NE);
  unsigned *POff = Take(N + 1), *PVal = Take(NE);
  Oriented([&](unsigned From, unsigned To) {
    ++SuccOff[From + 1];
    ++POff[To + 1];
  });
  for (std::size_t I = 0; I != N; ++I) {
    SuccOff[I + 1] += SuccOff[I];
    POff[I + 1] += POff[I];
  }
  unsigned *Cursor = Take(N), *Stack = Take(N); // scratch
  std::copy(SuccOff, SuccOff + N, Cursor);
  std::copy(POff, POff + N, Stack);
  Oriented([&](unsigned From, unsigned To) {
    SuccVal[Cursor[From]++] = To;
    PVal[Stack[To]++] = From;
  });

  // Reverse postorder from the root (Cursor doubles as the DFS cursor).
  unsigned *Rpo = Take(N), *Order = Take(N);
  std::fill(Rpo, Rpo + N, ~0u);
  unsigned SP = 0, Reached = 0;
  Rpo[Root] = 0; // marks visited; renumbered below
  Cursor[Root] = SuccOff[Root];
  Stack[SP++] = Root;
  while (SP) {
    unsigned Node = Stack[SP - 1];
    if (Cursor[Node] < SuccOff[Node + 1]) {
      unsigned M = SuccVal[Cursor[Node]++];
      if (Rpo[M] == ~0u) {
        Rpo[M] = 0;
        Cursor[M] = SuccOff[M];
        Stack[SP++] = M;
      }
    } else {
      Order[Reached++] = Node; // postorder; reversed below
      --SP;
    }
  }
  std::reverse(Order, Order + Reached);
  for (unsigned I = 0; I != Reached; ++I)
    Rpo[Order[I]] = I;

  // Cooper-Harvey-Kennedy: iterate to a fixed point, intersecting the idoms
  // of processed predecessors. The root is its own idom while iterating.
  unsigned *Dom = Take(N);
  std::fill(Dom, Dom + N, ~0u);
  Dom[Root] = Root;
  auto Intersect = [&](unsigned A, unsigned B) {
    while (A != B) {
      while (Rpo[A] > Rpo[B])
        A = Dom[A];
      while (Rpo[B] > Rpo[A])
        B = Dom[B];
    }
    return A;
  };
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (unsigned I = 1; I < Reached; ++I) {
      unsigned Node = Order[I];
      unsigned NewIdom = ~0u;
      for (unsigned PI = POff[Node]; PI != POff[Node + 1]; ++PI) {
        unsigned P = PVal[PI];
        if (Dom[P] == ~0u)
          continue; // Unreachable or unprocessed predecessor.
        NewIdom = NewIdom == ~0u ? P : Intersect(P, NewIdom);
      }
      assert(NewIdom != ~0u && "reachable node with no processed predecessor");
      if (Dom[Node] != NewIdom) {
        Dom[Node] = NewIdom;
        Changed = true;
      }
    }
  }
  Dom[Root] = ~0u;

  // Children CSR, filled in reverse postorder.
  unsigned *COff = Take(N + 1), *CVal = Take(N);
  for (unsigned I = 1; I < Reached; ++I)
    ++COff[Dom[Order[I]] + 1];
  for (std::size_t I = 0; I != N; ++I)
    COff[I + 1] += COff[I];
  std::copy(COff, COff + N, Cursor);
  for (unsigned I = 1; I < Reached; ++I)
    CVal[Cursor[Dom[Order[I]]]++] = Order[I];

  // Euler intervals over the dominator tree for O(1) dominance queries.
  unsigned *EnterAt = Take(N), *LeaveAt = Take(N);
  std::copy(COff, COff + N, Cursor);
  unsigned Clock = 0;
  SP = 0;
  EnterAt[Root] = Clock++;
  Stack[SP++] = Root;
  while (SP) {
    unsigned Node = Stack[SP - 1];
    if (Cursor[Node] < COff[Node + 1]) {
      unsigned Child = CVal[Cursor[Node]++];
      EnterAt[Child] = Clock++;
      Stack[SP++] = Child;
    } else {
      LeaveAt[Node] = Clock++;
      --SP;
    }
  }
  assert(Next == Storage.get() + Words && "tables must fill the allocation");
  (void)Words;

  PredOff = POff;
  PredVal = PVal;
  RpoNum = Rpo;
  Idom = Dom;
  ChildOff = COff;
  ChildVal = CVal;
  In = EnterAt;
  Out = LeaveAt;
}

DomTree::DomTree(const Function &F, Direction D)
    : NumNodes(F.numBlocks()),
      Root(D == Post ? F.exit()->id() : F.entry()->id()) {
  unsigned NumEdges = 0;
  for (const auto &BB : F.blocks())
    NumEdges += unsigned(BB->successors().size());
  build(NumEdges, D == Post, [&](auto Add) {
    for (const auto &BB : F.blocks())
      for (BasicBlock *Succ : BB->successors())
        Add(BB->id(), Succ->id());
  });
}

DomTree::DomTree(const Function &F, const CFGEdges &E, Direction D)
    : NumNodes(F.numBlocks() + E.size()),
      Root(D == Post ? F.exit()->id() : F.entry()->id()) {
  const unsigned NB = F.numBlocks();
  build(2 * E.size(), D == Post, [&](auto Add) {
    for (unsigned Id = 0, N = E.size(); Id != N; ++Id) {
      Add(E.edge(Id).From->id(), NB + Id);
      Add(NB + Id, E.edge(Id).To->id());
    }
  });
}

DomTree::DomTree(const Digraph &G, unsigned RootNode)
    : NumNodes(G.numNodes()), Root(RootNode) {
  build(G.numEdges(), /*Reverse=*/false, [&](auto Add) {
    for (unsigned N = 0, E = G.numNodes(); N != E; ++N)
      for (unsigned S : G.succs(N))
        Add(N, S);
  });
}

bool depflow::bruteForceDominates(const Digraph &G, unsigned Root, unsigned A,
                                  unsigned B) {
  std::vector<bool> FromRoot = G.reachableFrom(Root);
  if (!FromRoot[A] || !FromRoot[B])
    return false;
  if (A == B)
    return true;
  if (A == Root)
    return true;
  if (B == Root)
    return false;
  // BFS from Root avoiding A; if B is still reachable, A does not dominate.
  std::vector<bool> Seen(G.numNodes(), false);
  std::vector<unsigned> Stack{Root};
  Seen[Root] = true;
  Seen[A] = true; // Block traversal through A.
  while (!Stack.empty()) {
    unsigned N = Stack.back();
    Stack.pop_back();
    for (unsigned S : G.succs(N)) {
      if (S == B)
        return false;
      if (!Seen[S]) {
        Seen[S] = true;
        Stack.push_back(S);
      }
    }
  }
  return true;
}

std::vector<std::vector<unsigned>>
depflow::dominanceFrontiers(const DomTree &DT) {
  // Note: no |preds| >= 2 guard. For a single-pred node b, idom(b) is that
  // pred and the walk adds nothing — except when b is the root (idom -1),
  // where back edges into the root legitimately put the root into its own
  // ancestors' frontiers.
  std::vector<std::vector<unsigned>> DF(DT.numNodes());
  for (unsigned B = 0, N = DT.numNodes(); B != N; ++B) {
    if (!DT.isReachable(B))
      continue;
    for (unsigned P : DT.preds(B)) {
      if (!DT.isReachable(P))
        continue;
      int Runner = int(P);
      while (Runner >= 0 && Runner != DT.idom(B)) {
        DF[unsigned(Runner)].push_back(B);
        Runner = DT.idom(unsigned(Runner));
      }
    }
  }
  // Deduplicate (a node can reach the same frontier through several preds).
  for (auto &Frontier : DF) {
    std::sort(Frontier.begin(), Frontier.end());
    Frontier.erase(std::unique(Frontier.begin(), Frontier.end()),
                   Frontier.end());
  }
  return DF;
}
