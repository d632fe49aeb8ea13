//===- ir/CFGEdges.cpp - Dense CFG edge numbering -------------------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "ir/CFGEdges.h"

#include <algorithm>

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
