//===- cdg/ControlDependence.cpp - Control dependence ---------------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "cdg/ControlDependence.h"

#include "graph/Dominators.h"
#include "ir/Function.h"
#include "support/Statistic.h"

#include <algorithm>
#include <map>

using namespace depflow;

// The paper's O(E) claim about the factored CDG is a *size* claim: one CD
// set per cycle-equivalence class instead of one per edge keeps the total
// number of (class, branch) entries linear on structured programs.
// bench_cycle_equiv fits NumCDGFactoredEntries against E; the query
// counter sizes the construction work (classes x branches O(1) queries).
DEPFLOW_STATISTIC(NumCDGFactoredEntries, "cdg",
                  "Entries in the factored CDG (class -> branch edge)");
DEPFLOW_STATISTIC(NumCDGPDomQueries, "cdg",
                  "O(1) postdominance queries during factored-CDG build");

/// Collects the ids of all branch edges (out-edges of switch blocks).
static std::vector<unsigned> branchEdges(const CFGEdges &E) {
  std::vector<unsigned> Result;
  for (unsigned Id = 0, N = E.size(); Id != N; ++Id)
    if (E.edge(Id).From->numSuccessors() > 1)
      Result.push_back(Id);
  return Result;
}

std::vector<std::vector<unsigned>>
depflow::nodeControlDependence(const Function &F, const CFGEdges &E,
                               const DomTree &PDT,
                               std::vector<char> *SelfDependent,
                               std::vector<char> *EntryDependent) {
  std::vector<std::vector<unsigned>> CD(F.numBlocks());
  if (SelfDependent)
    SelfDependent->assign(F.numBlocks(), 0);
  if (EntryDependent) {
    // The postdominators of the entry block: its chain up to the root.
    EntryDependent->assign(F.numBlocks(), 0);
    for (int W = int(F.entry()->id()); W >= 0; W = PDT.idom(unsigned(W)))
      (*EntryDependent)[unsigned(W)] = 1;
  }

  for (unsigned EdgeId : branchEdges(E)) {
    const CFGEdge &Edge = E.edge(EdgeId);
    unsigned U = Edge.From->id();
    // Walk from the edge target up the postdominator tree, stopping at
    // ipdom(U); every node on the way is control dependent on this edge.
    // On back edges the walk passes through U itself; FOW's algorithm
    // traditionally records that as a loop self-dependence, but Definition 2
    // of the paper ("x does not postdominate n") excludes it, and we follow
    // the paper; callers that want it get the flag instead.
    int Stop = PDT.idom(U);
    int W = int(Edge.To->id());
    while (W >= 0 && W != Stop) {
      if (W != int(U))
        CD[unsigned(W)].push_back(EdgeId);
      else if (SelfDependent)
        (*SelfDependent)[U] = 1;
      W = PDT.idom(unsigned(W));
    }
  }
  for (auto &Set : CD) {
    std::sort(Set.begin(), Set.end());
    Set.erase(std::unique(Set.begin(), Set.end()), Set.end());
  }
  return CD;
}

std::vector<std::vector<unsigned>>
depflow::edgeControlDependenceBaseline(const Function &F, const CFGEdges &E) {
  unsigned NB = F.numBlocks();
  DomTree PDT(F, E, DomTree::Post);

  std::vector<std::vector<unsigned>> CD(PDT.numNodes());
  for (unsigned EdgeId : branchEdges(E)) {
    const CFGEdge &Edge = E.edge(EdgeId);
    unsigned U = Edge.From->id();
    unsigned Dummy = NB + EdgeId;
    int Stop = PDT.idom(U);
    int W = int(Dummy);
    while (W >= 0 && W != Stop) {
      CD[unsigned(W)].push_back(EdgeId);
      W = PDT.idom(unsigned(W));
    }
  }
  // Keep only the edge-dummy rows, reindexed by edge id.
  std::vector<std::vector<unsigned>> Result(E.size());
  for (unsigned Id = 0, N = E.size(); Id != N; ++Id) {
    Result[Id] = std::move(CD[NB + Id]);
    std::sort(Result[Id].begin(), Result[Id].end());
    Result[Id].erase(std::unique(Result[Id].begin(), Result[Id].end()),
                     Result[Id].end());
  }
  return Result;
}

FactoredCDG depflow::buildFactoredCDG(const Function &F, const CFGEdges &E) {
  return buildFactoredCDG(F, E, cycleEquivalenceClasses(F, E));
}

FactoredCDG depflow::buildFactoredCDG(const Function &F, const CFGEdges &E,
                                      const CycleEquivalence &CE) {
  FactoredCDG Result;
  Result.Classes = CE;
  Result.ClassCD.assign(Result.Classes.NumClasses, {});

  // One representative edge per class.
  std::vector<int> Rep(Result.Classes.NumClasses, -1);
  for (unsigned Id = 0, N = E.size(); Id != N; ++Id)
    if (Rep[Result.Classes.ClassOf[Id]] < 0)
      Rep[Result.Classes.ClassOf[Id]] = int(Id);

  unsigned NB = F.numBlocks();
  DomTree PDT(F, E, DomTree::Post);
  std::vector<unsigned> Branches = branchEdges(E);

  // CD(representative x) = { branch edge e=(u,·) : x pdom dummy(e) and
  // x !pdom u }, answered with O(1) postdominance queries.
  for (unsigned C = 0; C != Result.Classes.NumClasses; ++C) {
    if (Rep[C] < 0)
      continue; // Class only contains the virtual edge.
    unsigned X = NB + unsigned(Rep[C]);
    for (unsigned B : Branches) {
      const CFGEdge &Edge = E.edge(B);
      NumCDGPDomQueries += 2;
      if (PDT.dominates(X, NB + B) && !PDT.dominates(X, Edge.From->id())) {
        Result.ClassCD[C].push_back(B);
        ++NumCDGFactoredEntries;
      }
    }
  }
  return Result;
}

std::vector<unsigned> depflow::edgeCDPartitionBaseline(const Function &F,
                                                       const CFGEdges &E,
                                                       unsigned &NumClasses) {
  std::vector<std::vector<unsigned>> CD = edgeControlDependenceBaseline(F, E);
  std::map<std::vector<unsigned>, unsigned> ClassOfSet;
  std::vector<unsigned> Class(E.size());
  for (unsigned Id = 0, N = E.size(); Id != N; ++Id) {
    auto [It, Inserted] =
        ClassOfSet.try_emplace(CD[Id], unsigned(ClassOfSet.size()));
    Class[Id] = It->second;
    (void)Inserted;
  }
  NumClasses = unsigned(ClassOfSet.size());
  return Class;
}
