//===- ir/CFGEdges.cpp - Dense CFG edge numbering -------------------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "ir/CFGEdges.h"

#include <algorithm>
#include <cassert>

using namespace depflow;

CFGEdges::CFGEdges(const Function &F) {
  const unsigned NB = F.numBlocks();
  OutOff.assign(NB + 1, 0);
  InOff.assign(NB + 1, 0);
  for (const auto &BB : F.blocks()) {
    std::span<BasicBlock *const> Succs = BB->successors();
    OutOff[BB->id() + 1] = std::uint32_t(Succs.size());
    for (const BasicBlock *S : Succs)
      ++InOff[S->id() + 1];
  }
  for (unsigned B = 0; B != NB; ++B) {
    OutOff[B + 1] += OutOff[B];
    InOff[B + 1] += InOff[B];
  }
  const std::uint32_t NE = OutOff[NB];
  Edges.reserve(NE);
  OutIdx.resize(NE);
  InIdx.resize(NE);
  // Blocks are numbered in order, so edges come out block by block and
  // each block's out edges get consecutive ids. The in-edge fill uses
  // each block's start offset as its cursor, which leaves it at the next
  // block's start; one shift restores the offsets.
  for (const auto &BB : F.blocks()) {
    std::span<BasicBlock *const> Succs = BB->successors();
    for (unsigned SI = 0, E = unsigned(Succs.size()); SI != E; ++SI) {
      const unsigned Id = unsigned(Edges.size());
      Edges.push_back({Id, BB.get(), Succs[SI], SI});
      OutIdx[Id] = Id;
      InIdx[InOff[Succs[SI]->id()]++] = Id;
    }
  }
  std::copy_backward(InOff.begin(), InOff.end() - 1, InOff.end());
  InOff[0] = 0;
}

std::size_t depflow::blockReversePostorder(const Function &F,
                                           const CFGEdges &E,
                                           std::span<unsigned> Order,
                                           std::span<std::uint32_t> Stack,
                                           std::span<std::uint8_t> Reached) {
  assert(Order.size() >= F.numBlocks() &&
         Stack.size() >= 2 * std::size_t(F.numBlocks()) &&
         Reached.size() >= F.numBlocks() && "scratch too small");
  // The stack holds (block, next out-edge to examine) pairs. Traversing
  // edge ids avoids materializing successor vectors per block. The
  // postorder is written into Order and reversed in place.
  std::size_t NumDone = 0, Top = 0;
  auto Enter = [&](unsigned B) {
    Reached[B] = 1;
    Stack[2 * Top] = B;
    Stack[2 * Top++ + 1] = 0;
  };
  Enter(F.entry()->id());
  while (Top) {
    const unsigned B = Stack[2 * Top - 2];
    std::uint32_t &Cursor = Stack[2 * Top - 1];
    std::span<const std::uint32_t> Out = E.outEdges(F.block(B));
    if (Cursor < Out.size()) {
      const unsigned Next = E.edge(Out[Cursor++]).To->id();
      if (!Reached[Next])
        Enter(Next);
    } else {
      Order[NumDone++] = B;
      --Top;
    }
  }
  std::reverse(Order.begin(), Order.begin() + std::ptrdiff_t(NumDone));
  return NumDone;
}
