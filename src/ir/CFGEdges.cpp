//===- ir/CFGEdges.cpp - Dense CFG edge numbering -------------------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "ir/CFGEdges.h"

using namespace depflow;

CFGEdges::CFGEdges(const Function &F) {
  Out.resize(F.numBlocks());
  In.resize(F.numBlocks());
  for (const auto &BB : F.blocks()) {
    const std::vector<BasicBlock *> &Succs = BB->successors();
    for (unsigned SI = 0, E = unsigned(Succs.size()); SI != E; ++SI) {
      unsigned Id = unsigned(Edges.size());
      Edges.push_back({Id, BB.get(), Succs[SI], SI});
      Out[BB->id()].push_back(Id);
      In[Succs[SI]->id()].push_back(Id);
    }
  }
}
