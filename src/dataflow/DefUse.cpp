//===- ssa/DefUse.cpp - Reaching definitions and def-use chains -----------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "dataflow/DefUse.h"

#include "support/Worklist.h"

using namespace depflow;

ReachingDefs::ReachingDefs(Function &F) {
  F.recomputePreds();
  EntrySiteOf.resize(F.numVars());
  for (VarId V = 0; V != F.numVars(); ++V) {
    EntrySiteOf[V] = unsigned(Sites.size());
    Sites.push_back(nullptr);
    SiteVar.push_back(V);
  }
  for (const auto &BB : F.blocks()) {
    for (const auto &I : BB->instructions()) {
      if (const auto *D = dyn_cast<DefInst>(I.get())) {
        SiteOf[D] = unsigned(Sites.size());
        Sites.push_back(D);
        SiteVar.push_back(D->def());
      }
    }
  }
  unsigned NumSites = unsigned(Sites.size());

  // Per-variable "all sites" kill masks.
  std::vector<BitVector> SitesOfVar(F.numVars(), BitVector(NumSites));
  for (unsigned S = 0; S != NumSites; ++S)
    SitesOfVar[SiteVar[S]].set(S);

  // GEN/KILL per block (last def of each var in the block generates).
  unsigned NB = F.numBlocks();
  std::vector<BitVector> Gen(NB, BitVector(NumSites));
  std::vector<BitVector> Kill(NB, BitVector(NumSites));
  for (const auto &BB : F.blocks()) {
    BitVector &G = Gen[BB->id()];
    BitVector &K = Kill[BB->id()];
    for (const auto &I : BB->instructions()) {
      const auto *D = dyn_cast<DefInst>(I.get());
      if (!D)
        continue;
      K |= SitesOfVar[D->def()];
      G.resetAll(SitesOfVar[D->def()]);
      G.set(SiteOf[D]);
    }
  }

  // Iterate IN/OUT to a fixed point.
  std::vector<BitVector> In(NB, BitVector(NumSites));
  std::vector<BitVector> Out(NB, BitVector(NumSites));
  // Entry block starts with all entry defs live.
  BitVector EntryIn(NumSites);
  for (VarId V = 0; V != F.numVars(); ++V)
    EntryIn.set(EntrySiteOf[V]);

  Worklist WL(NB);
  for (unsigned B = 0; B != NB; ++B)
    WL.push(B);
  while (!WL.empty()) {
    unsigned B = WL.pop();
    BitVector NewIn = B == F.entry()->id() ? EntryIn : BitVector(NumSites);
    for (const BasicBlock *P : F.block(B)->predecessors())
      NewIn |= Out[P->id()];
    BitVector NewOut = NewIn;
    NewOut.resetAll(Kill[B]);
    NewOut |= Gen[B];
    In[B] = NewIn;
    if (NewOut != Out[B]) {
      Out[B] = NewOut;
      for (const BasicBlock *S : F.block(B)->successors())
        WL.push(S->id());
    }
  }

  // Walk each block once more to attach reaching sites to each use.
  std::uint32_t Row = 0;
  for (const auto &BB : F.blocks()) {
    BitVector Cur = In[BB->id()];
    for (const auto &IPtr : BB->instructions()) {
      const Instruction *I = IPtr.get();
      const std::uint32_t R = Row++;
      for (unsigned OpIdx = 0, N = I->numOperands(); OpIdx != N; ++OpIdx) {
        const Operand &Op = I->operand(OpIdx);
        if (!Op.isVar())
          continue;
        auto &Slots = UseIndex[I];
        if (Slots.empty())
          Slots.assign(I->numOperands(), -1);
        Slots[OpIdx] = int(AllUses.size());
        AllUses.push_back({I, OpIdx, Op.var(), R});
        std::vector<unsigned> R;
        const BitVector &Mask = SitesOfVar[Op.var()];
        for (int S = Cur.findFirst(); S >= 0; S = Cur.findNext(unsigned(S)))
          if (Mask.test(unsigned(S)))
            R.push_back(unsigned(S));
        Reaching.push_back(std::move(R));
      }
      if (const auto *D = dyn_cast<DefInst>(I)) {
        Cur.resetAll(SitesOfVar[D->def()]);
        Cur.set(SiteOf.at(D));
      }
    }
  }
}

std::vector<const Instruction *>
ReachingDefs::defsReaching(const Instruction *I, unsigned OpIdx) const {
  auto It = UseIndex.find(I);
  assert(It != UseIndex.end() && OpIdx < It->second.size() &&
         It->second[OpIdx] >= 0 && "not a variable use");
  std::vector<const Instruction *> R;
  for (unsigned S : Reaching[unsigned(It->second[OpIdx])])
    R.push_back(Sites[S]);
  return R;
}

std::size_t ReachingDefs::numChains() const {
  std::size_t N = 0;
  for (const auto &R : Reaching)
    N += R.size();
  return N;
}
