//===- structure/SESE.cpp - SESE regions and the PST ----------------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "structure/SESE.h"

#include "ir/CFGEdges.h"
#include "ir/Function.h"
#include "support/Arena.h"
#include "support/Statistic.h"

#include <algorithm>

using namespace depflow;

DEPFLOW_STATISTIC(NumSESERegions, "sese",
                  "Canonical SESE regions found (excl. the root region)");
DEPFLOW_MAX_STATISTIC(MaxPSTDepth, "sese",
                      "Deepest program-structure-tree nesting");

ProgramStructureTree::ProgramStructureTree(const Function &F,
                                           const CFGEdges &E,
                                           const CycleEquivalence &CE)
    : NumBlocks(F.numBlocks()), NumEdges(E.size()) {
  const std::uint32_t NB = NumBlocks, NE = NumEdges, NC = CE.NumClasses;
  using U32 = std::uint32_t;
  ScratchBlock Scratch(2 * ScratchBlock::bytesFor<U32>(NE) +
                       ScratchBlock::bytesFor<U32>(NC + 1) +
                       ScratchBlock::bytesFor<U32>(NB) +
                       ScratchBlock::bytesFor<bool>(NB));

  // One search from the entry lists the edges in the order it examines
  // them, tagging the tree edges (those that discover their target). The
  // search examines every edge on the tree path to a block before any out
  // edge of that block, and a dominating edge lies on that path, so this
  // order sorts each class by dominance (total within a class by Theorem
  // 1).
  constexpr U32 TreeBit = U32(1) << 31;
  U32 *Order = Scratch.take<U32>(NE);
  U32 *Stack = Scratch.take<U32>(NB);
  bool *Seen = Scratch.takeFilled<bool>(NB, false);
  U32 NumOrdered = 0, Top = 0;
  Stack[Top++] = F.entry()->id();
  Seen[F.entry()->id()] = true;
  while (Top) {
    for (U32 EdgeId : E.outEdges(F.block(Stack[--Top]))) {
      assert(EdgeId < TreeBit && "edge id collides with the tree flag");
      const unsigned To = E.edge(EdgeId).To->id();
      if (!Seen[To]) {
        Seen[To] = true;
        Stack[Top++] = To;
        EdgeId |= TreeBit;
      }
      Order[NumOrdered++] = EdgeId;
    }
  }

  // Group the edges by class, each class in search order: a counting-sorted
  // CSR whose fill uses each class's start as its cursor (which leaves it
  // at the next class's start; one shift restores the offsets).
  U32 *ClassOff = Scratch.takeFilled<U32>(NC + 1, 0);
  U32 *ClassVal = Scratch.take<U32>(NE);
  assert(Scratch.remaining() == 0 && "PST scratch sized exactly");
  for (U32 K = 0; K != NumOrdered; ++K)
    ++ClassOff[CE.ClassOf[Order[K] & ~TreeBit] + 1];
  U32 NumRegions = 1;
  for (U32 C = 0; C != NC; ++C) {
    NumRegions += ClassOff[C + 1] > 1 ? ClassOff[C + 1] - 1 : 0;
    ClassOff[C + 1] += ClassOff[C];
  }
  for (U32 K = 0; K != NumOrdered; ++K) {
    const U32 EdgeId = Order[K] & ~TreeBit;
    ClassVal[ClassOff[CE.ClassOf[EdgeId]]++] = EdgeId;
  }
  std::copy_backward(ClassOff, ClassOff + NC, ClassOff + NC + 1);
  ClassOff[0] = 0;

  // The tables, laid out as the accessors read them; every block and edge
  // starts in the root region.
  Tables.assign(NB + 3 * std::size_t(NE) + 2 * std::size_t(NumRegions), 0);
  U32 *BlockRegion = Tables.data();
  U32 *EdgeRegion = BlockRegion + NB;
  U32 *OpenedBy = EdgeRegion + NE;
  U32 *ClosedBy = OpenedBy + NE;
  U32 *ChildOff = ClosedBy + NE;
  U32 *ChildIdx = ChildOff + NumRegions + 1;
  std::fill(OpenedBy, ChildOff, NoRegion);

  // Region 0 is the whole function; each consecutive pair of a class's
  // edges bounds one canonical region.
  Regions.reserve(NumRegions);
  Regions.push_back(SESERegion{0, -1, -1, -1, 0});
  for (U32 C = 0; C != NC; ++C)
    for (U32 I = ClassOff[C]; I + 1 < ClassOff[C + 1]; ++I) {
      const U32 RegionId = U32(Regions.size());
      Regions.push_back(
          SESERegion{RegionId, int(ClassVal[I]), int(ClassVal[I + 1]), -1, 0});
      OpenedBy[ClassVal[I]] = RegionId;
      ClosedBy[ClassVal[I + 1]] = RegionId;
    }
  assert(Regions.size() == NumRegions && "region count predicted exactly");
  NumSESERegions += NumRegions - 1;

  // Replaying the search assigns every block and edge its innermost region
  // and links each canonical region to its PST parent. Context enters a
  // region at its entry edge and leaves at its exit edge; the boundary
  // edges themselves live in the surrounding region. A region's exit edge
  // is only examined from inside it, after its entry edge linked the
  // parent.
  for (U32 K = 0; K != NumOrdered; ++K) {
    const U32 EdgeId = Order[K] & ~TreeBit;
    const CFGEdge &Edge = E.edge(EdgeId);
    U32 Cur = BlockRegion[Edge.From->id()];
    if (U32 Closed = ClosedBy[EdgeId]; Closed != NoRegion) {
      assert(Cur == Closed && "exit edge traversed outside its region");
      Cur = U32(Regions[Closed].Parent);
    }
    EdgeRegion[EdgeId] = Cur;
    if (U32 Opened = OpenedBy[EdgeId]; Opened != NoRegion) {
      Regions[Opened].Parent = int(Cur);
      Regions[Opened].Depth = Regions[Cur].Depth + 1;
      ++ChildOff[Cur + 1];
      Cur = Opened;
    }
    if (Order[K] & TreeBit)
      BlockRegion[Edge.To->id()] = Cur;
    else
      assert(BlockRegion[Edge.To->id()] == Cur &&
             "inconsistent region context at a block");
  }
  for (const SESERegion &R : Regions)
    if (R.Id)
      MaxPSTDepth.update(R.Depth);

  // Children CSR, each list in the order the search entered the regions.
  for (U32 R = 0; R != NumRegions; ++R)
    ChildOff[R + 1] += ChildOff[R];
  for (U32 K = 0; K != NumOrdered; ++K)
    if (U32 Opened = OpenedBy[Order[K] & ~TreeBit]; Opened != NoRegion)
      ChildIdx[ChildOff[U32(Regions[Opened].Parent)]++] = Opened;
  std::copy_backward(ChildOff, ChildOff + NumRegions,
                     ChildOff + NumRegions + 1);
  ChildOff[0] = 0;
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
    std::span<const std::uint32_t> Children = children(Id);
    for (auto It = Children.rbegin(); It != Children.rend(); ++It)
      Stack.push_back({*It, Indent + 1});
  }
  return Out;
}
