//===- structure/SESE.cpp - SESE regions and the PST ----------------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "structure/SESE.h"

#include "graph/Dominators.h"
#include "ir/CFGEdges.h"
#include "ir/Function.h"
#include "support/Statistic.h"

#include <algorithm>

using namespace depflow;

DEPFLOW_STATISTIC(NumSESERegions, "sese",
                  "Canonical SESE regions found (excl. the root region)");
DEPFLOW_MAX_STATISTIC(MaxPSTDepth, "sese",
                      "Deepest program-structure-tree nesting");

ProgramStructureTree::ProgramStructureTree(const Function &F,
                                           const CFGEdges &E,
                                           const CycleEquivalence &CE) {
  // Root region covering the whole function.
  Regions.push_back(SESERegion{0, -1, -1, -1, 0, {}});
  OpenedBy.assign(E.size(), -1);
  ClosedBy.assign(E.size(), -1);
  RegionOfBlock.assign(F.numBlocks(), 0);
  RegionOfEdge.assign(E.size(), 0);

  // Group real CFG edges by equivalence class: a counting-sorted CSR (edge
  // ids ascending within each class) instead of one vector per class.
  std::vector<std::uint32_t> ClassOff(CE.NumClasses + 1, 0);
  std::vector<std::uint32_t> ClassVal(E.size());
  for (unsigned Id = 0, N = E.size(); Id != N; ++Id)
    ++ClassOff[CE.ClassOf[Id] + 1];
  for (unsigned C = 0; C != CE.NumClasses; ++C)
    ClassOff[C + 1] += ClassOff[C];
  {
    std::vector<std::uint32_t> Fill(ClassOff.begin(), ClassOff.end() - 1);
    for (unsigned Id = 0, N = E.size(); Id != N; ++Id)
      ClassVal[Fill[CE.ClassOf[Id]]++] = Id;
  }

  // Order each class by dominance over the edge-split graph (node NB + e
  // is CFG edge e); Theorem 1 guarantees dominance is total within a
  // class, so this is a valid strict weak order on each class.
  const unsigned NB = F.numBlocks();
  DomTree Dom(F, E, DomTree::Forward);
  for (unsigned C = 0; C != CE.NumClasses; ++C) {
    std::uint32_t *First = ClassVal.data() + ClassOff[C];
    std::uint32_t *Last = ClassVal.data() + ClassOff[C + 1];
    if (Last - First < 2)
      continue;
    std::sort(First, Last, [&](std::uint32_t A, std::uint32_t B) {
      return Dom.strictlyDominates(NB + A, NB + B);
    });
    for (std::uint32_t *I = First; I + 1 != Last; ++I) {
      unsigned RegionId = unsigned(Regions.size());
      Regions.push_back(
          SESERegion{RegionId, int(I[0]), int(I[1]), -1, 0, {}});
      OpenedBy[I[0]] = int(RegionId);
      ClosedBy[I[1]] = int(RegionId);
      ++NumSESERegions;
    }
  }

  // One CFG traversal assigns every block and edge its innermost region and
  // links each canonical region to its PST parent. Context enters a region
  // at its entry edge and leaves at its exit edge; the boundary edges
  // themselves live in the surrounding region.
  std::vector<int> Ctx(F.numBlocks(), -1);
  std::vector<BasicBlock *> Stack;
  Ctx[F.entry()->id()] = 0;
  Stack.push_back(F.entry());
  while (!Stack.empty()) {
    BasicBlock *BB = Stack.back();
    Stack.pop_back();
    unsigned BlockCtx = unsigned(Ctx[BB->id()]);
    RegionOfBlock[BB->id()] = BlockCtx;
    for (unsigned EdgeId : E.outEdges(BB)) {
      unsigned Cur = BlockCtx;
      if (int Closed = ClosedBy[EdgeId]; Closed >= 0) {
        assert(Cur == unsigned(Closed) &&
               "exit edge traversed outside its region");
        Cur = unsigned(Regions[unsigned(Closed)].Parent >= 0
                           ? Regions[unsigned(Closed)].Parent
                           : 0);
      }
      RegionOfEdge[EdgeId] = Cur;
      if (int Opened = OpenedBy[EdgeId]; Opened >= 0) {
        SESERegion &R = Regions[unsigned(Opened)];
        assert((R.Parent == -1 || R.Parent == int(Cur)) &&
               "region entered from two different contexts");
        if (R.Parent == -1) {
          R.Parent = int(Cur);
          Regions[Cur].Children.push_back(R.Id);
        }
        Cur = unsigned(Opened);
      }
      BasicBlock *To = E.edge(EdgeId).To;
      if (Ctx[To->id()] < 0) {
        Ctx[To->id()] = int(Cur);
        Stack.push_back(To);
      } else {
        assert(Ctx[To->id()] == int(Cur) &&
               "inconsistent region context at a block");
      }
    }
  }

  // The traversal reads a region's Parent when it crosses the region's
  // exit edge. That edge is only crossed from inside the region (the
  // "exit edge traversed outside its region" assert), so the region's
  // entry edge, which links the Parent, was crossed first. Every Parent
  // is linked now; depths follow from the finished links.
  for (SESERegion &R : Regions) {
    if (R.Id == 0)
      continue;
    unsigned Depth = 0;
    for (int P = R.Parent; P >= 0; P = Regions[unsigned(P)].Parent)
      ++Depth;
    R.Depth = Depth;
    MaxPSTDepth.update(Depth);
  }
}

bool ProgramStructureTree::encloses(unsigned Ancestor, unsigned R) const {
  for (int Cur = int(R); Cur >= 0; Cur = Regions[unsigned(Cur)].Parent)
    if (unsigned(Cur) == Ancestor)
      return true;
  return false;
}

std::string ProgramStructureTree::dump(const Function &F,
                                       const CFGEdges &E) const {
  std::string Out;
  // Depth-first over the PST.
  std::vector<std::pair<unsigned, unsigned>> Stack{{0u, 0u}};
  while (!Stack.empty()) {
    auto [Id, Indent] = Stack.back();
    Stack.pop_back();
    const SESERegion &R = Regions[Id];
    Out.append(Indent * 2, ' ');
    if (R.EntryEdge < 0) {
      Out += "region 0 (whole function '" + F.name() + "')\n";
    } else {
      const CFGEdge &In = E.edge(unsigned(R.EntryEdge));
      const CFGEdge &OutE = E.edge(unsigned(R.ExitEdge));
      Out += "region " + std::to_string(R.Id) + ": entry " +
             In.From->label() + "->" + In.To->label() + ", exit " +
             OutE.From->label() + "->" + OutE.To->label() + "\n";
    }
    for (auto It = R.Children.rbegin(); It != R.Children.rend(); ++It)
      Stack.push_back({*It, Indent + 1});
  }
  return Out;
}
