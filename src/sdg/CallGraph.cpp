//===- sdg/CallGraph.cpp - Module call graph + SCC condensation -----------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "sdg/CallGraph.h"

#include "support/Casting.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

using namespace depflow;

CallGraph CallGraph::build(const Module &M) {
  CallGraph CG;
  CG.M = &M;
  const unsigned N = M.numFunctions();
  CG.SitesOf.resize(N);
  CG.Callees.resize(N);

  std::unordered_map<const Function *, unsigned> IndexOf;
  IndexOf.reserve(N);
  for (unsigned FI = 0; FI != N; ++FI)
    IndexOf[M.function(FI)] = FI;

  for (unsigned FI = 0; FI != N; ++FI) {
    const Function *F = M.function(FI);
    for (const auto &BB : F->blocks())
      for (const auto &I : BB->instructions()) {
        const auto *C = dyn_cast<CallInst>(I.get());
        if (!C)
          continue;
        const Function *Callee = M.lookup(C->callee());
        assert(Callee && "CallGraph::build requires resolved callees");
        unsigned CalleeIdx = IndexOf.at(Callee);
        CG.SitesOf[FI].push_back(unsigned(CG.Sites.size()));
        CG.Sites.push_back({FI, C, CalleeIdx});
        CG.Callees[FI].push_back(CalleeIdx);
      }
  }
  for (auto &V : CG.Callees) {
    std::sort(V.begin(), V.end());
    V.erase(std::unique(V.begin(), V.end()), V.end());
  }

  // Iterative Tarjan. SCCs complete only after every SCC they reach has
  // completed, so the emission index is already a bottom-up topological
  // numbering of the condensation (callee SCC ids < caller SCC ids).
  CG.SCCOf.assign(N, ~0u);
  std::vector<unsigned> Index(N, ~0u), Low(N, 0);
  std::vector<char> OnStack(N, 0);
  std::vector<unsigned> Stack;
  struct Frame {
    unsigned F;
    unsigned NextCallee;
  };
  unsigned NextIndex = 0;
  for (unsigned Root = 0; Root != N; ++Root) {
    if (Index[Root] != ~0u)
      continue;
    std::vector<Frame> Work{{Root, 0}};
    Index[Root] = Low[Root] = NextIndex++;
    Stack.push_back(Root);
    OnStack[Root] = 1;
    while (!Work.empty()) {
      Frame &Top = Work.back();
      const std::vector<unsigned> &Succ = CG.Callees[Top.F];
      if (Top.NextCallee < Succ.size()) {
        unsigned W = Succ[Top.NextCallee++];
        if (Index[W] == ~0u) {
          Index[W] = Low[W] = NextIndex++;
          Stack.push_back(W);
          OnStack[W] = 1;
          Work.push_back({W, 0});
        } else if (OnStack[W]) {
          Low[Top.F] = std::min(Low[Top.F], Index[W]);
        }
        continue;
      }
      unsigned V = Top.F;
      Work.pop_back();
      if (!Work.empty())
        Low[Work.back().F] = std::min(Low[Work.back().F], Low[V]);
      if (Low[V] == Index[V]) {
        unsigned SCC = unsigned(CG.Members.size());
        CG.Members.emplace_back();
        for (;;) {
          unsigned W = Stack.back();
          Stack.pop_back();
          OnStack[W] = 0;
          CG.SCCOf[W] = SCC;
          CG.Members[SCC].push_back(W);
          if (W == V)
            break;
        }
        std::sort(CG.Members[SCC].begin(), CG.Members[SCC].end());
      }
    }
  }

  const unsigned NumSCCs = unsigned(CG.Members.size());
  CG.Recursive.assign(NumSCCs, 0);
  for (unsigned S = 0; S != NumSCCs; ++S)
    if (CG.Members[S].size() > 1)
      CG.Recursive[S] = 1;
  for (const Site &S : CG.Sites)
    if (S.Caller == S.Callee)
      CG.Recursive[CG.SCCOf[S.Caller]] = 1;

  // Levels, in ascending SCC id order (callees always have smaller ids).
  CG.LevelOf.assign(NumSCCs, 0);
  for (unsigned S = 0; S != NumSCCs; ++S) {
    unsigned L = 0;
    for (unsigned F : CG.Members[S])
      for (unsigned Callee : CG.Callees[F])
        if (CG.SCCOf[Callee] != S)
          L = std::max(L, CG.LevelOf[CG.SCCOf[Callee]] + 1);
    CG.LevelOf[S] = L;
    if (CG.Levels.size() <= L)
      CG.Levels.resize(L + 1);
    CG.Levels[L].push_back(S);
  }
  return CG;
}

std::string CallGraph::toDot() const {
  std::string S = "digraph callgraph {\n  rankdir=LR;\n"
                  "  node [shape=box, fontname=\"monospace\"];\n";
  for (unsigned SCC = 0; SCC != numSCCs(); ++SCC) {
    if (Recursive[SCC]) {
      S += "  subgraph cluster_scc" + std::to_string(SCC) +
           " {\n    label=\"scc " + std::to_string(SCC) + " (recursive)\";\n";
      for (unsigned F : Members[SCC])
        S += "    \"" + M->function(F)->name() + "\";\n";
      S += "  }\n";
    }
  }
  for (unsigned F = 0; F != numFunctions(); ++F) {
    S += "  \"" + M->function(F)->name() + "\" [label=\"" +
         M->function(F)->name() + "\\nscc " + std::to_string(SCCOf[F]) +
         ", level " + std::to_string(LevelOf[SCCOf[F]]) + "\"];\n";
    for (unsigned Callee : Callees[F])
      S += "  \"" + M->function(F)->name() + "\" -> \"" +
           M->function(Callee)->name() + "\";\n";
  }
  S += "}\n";
  return S;
}
