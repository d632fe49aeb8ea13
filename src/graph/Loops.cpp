//===- graph/Loops.cpp - Natural loop recognition --------------------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "graph/Loops.h"

#include <algorithm>
#include <map>

using namespace depflow;

LoopForest::LoopForest(Function &F) {
  F.recomputePreds();
  DomTree DT(F, DomTree::Forward);
  InnermostOf.assign(F.numBlocks(), -1);

  // Retreating edges: edges into a node still on the DFS stack. The
  // dominated ones are natural back edges; the rest witness irreducible
  // control flow.
  std::vector<char> State(F.numBlocks(), 0); // 0 new, 1 on stack, 2 done
  {
    std::vector<std::pair<unsigned, unsigned>> Stack{{F.entry()->id(), 0}};
    State[F.entry()->id()] = 1;
    while (!Stack.empty()) {
      auto &[N, Cursor] = Stack.back();
      const auto &Succs = F.block(N)->successors();
      if (Cursor < Succs.size()) {
        unsigned S = Succs[Cursor++]->id();
        unsigned From = N;
        if (State[S] == 0) {
          State[S] = 1;
          Stack.push_back({S, 0});
        } else if (State[S] == 1 && !DT.dominates(S, From)) {
          Irreducible.push_back({From, S});
        }
      } else {
        State[N] = 2;
        Stack.pop_back();
      }
    }
  }

  // Back edges u->h with h dominating u define natural loops; loops with
  // one header merge.
  std::map<unsigned, std::vector<unsigned>> BodyOf; // header -> blocks
  for (const auto &BB : F.blocks()) {
    for (BasicBlock *S : BB->successors()) {
      unsigned U = BB->id(), H = S->id();
      if (!DT.dominates(H, U))
        continue;
      // Collect the natural loop of (U, H): H plus all blocks that reach U
      // without passing H.
      auto &Body = BodyOf[H];
      if (Body.empty())
        Body.push_back(H);
      std::vector<unsigned> Stack{U};
      auto Add = [&](unsigned B) {
        if (std::find(Body.begin(), Body.end(), B) == Body.end()) {
          Body.push_back(B);
          return true;
        }
        return false;
      };
      if (Add(U))
        while (!Stack.empty()) {
          unsigned B = Stack.back();
          Stack.pop_back();
          for (BasicBlock *P : F.block(B)->predecessors())
            if (P->id() != H && Add(P->id()))
              Stack.push_back(P->id());
        }
    }
  }

  for (auto &[Header, Body] : BodyOf) {
    std::sort(Body.begin(), Body.end());
    Loop L;
    L.Id = unsigned(Loops.size());
    L.Header = Header;
    L.Blocks = Body;
    Loops.push_back(std::move(L));
  }

  // Nesting: loop A is inside loop B iff B contains A's header and A != B.
  // Parent = smallest container.
  for (Loop &L : Loops) {
    int Best = -1;
    std::size_t BestSize = 0;
    for (const Loop &Candidate : Loops) {
      if (Candidate.Id == L.Id || !Candidate.contains(L.Header))
        continue;
      if (Best < 0 || Candidate.Blocks.size() < BestSize) {
        Best = int(Candidate.Id);
        BestSize = Candidate.Blocks.size();
      }
    }
    L.Parent = Best;
    if (Best >= 0)
      Loops[unsigned(Best)].Children.push_back(L.Id);
  }
  for (Loop &L : Loops) {
    unsigned Depth = 1;
    for (int P = L.Parent; P >= 0; P = Loops[unsigned(P)].Parent)
      ++Depth;
    L.Depth = Depth;
  }

  // Innermost loop per block: the smallest loop containing it.
  for (const Loop &L : Loops) {
    for (unsigned B : L.Blocks) {
      int Cur = InnermostOf[B];
      if (Cur < 0 || L.Blocks.size() < Loops[unsigned(Cur)].Blocks.size())
        InnermostOf[B] = int(L.Id);
    }
  }
}
