//===- dataflow/Liveness.cpp - Live variable analysis ---------------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "dataflow/Liveness.h"

#include "support/Worklist.h"

#include <algorithm>

using namespace depflow;

Liveness depflow::computeLiveness(Function &F) {
  F.recomputePreds();
  const unsigned NB = F.numBlocks();
  const std::size_t W = (std::size_t(F.numVars()) + 63) / 64;
  using Word = std::uint64_t;

  Liveness L;
  L.Words = W;
  L.Rows.assign(2 * NB * W, 0);
  auto LiveIn = [&](unsigned B) { return L.Rows.data() + 2 * B * W; };
  auto LiveOut = [&](unsigned B) { return LiveIn(B) + W; };

  // Per block, UEVar (upward-exposed uses) then DefMask (variables
  // assigned in the block), then one scratch set. Phi uses are attributed
  // to the incoming predecessor's live-out, phi defs to the block itself.
  std::vector<Word> Local((2 * std::size_t(NB) + 1) * W, 0);
  auto UEVar = [&](unsigned B) { return Local.data() + 2 * B * W; };
  auto DefMask = [&](unsigned B) { return UEVar(B) + W; };
  Word *In = Local.data() + 2 * std::size_t(NB) * W;
  auto Set = [](Word *Row, VarId V) { Row[V / 64] |= Word(1) << (V % 64); };
  auto Test = [](const Word *Row, VarId V) {
    return Row[V / 64] >> (V % 64) & 1;
  };
  for (const auto &BB : F.blocks()) {
    Word *UE = UEVar(BB->id()), *DM = DefMask(BB->id());
    for (const auto &I : BB->instructions()) {
      if (!isa<PhiInst>(I.get())) {
        for (const Operand &Op : I->operands())
          if (Op.isVar() && !Test(DM, Op.var()))
            Set(UE, Op.var());
      }
      if (const auto *D = dyn_cast<DefInst>(I.get()))
        Set(DM, D->def());
    }
  }

  Worklist WL(NB);
  for (unsigned B = 0; B != NB; ++B)
    WL.push(B);
  while (!WL.empty()) {
    const unsigned B = WL.pop();
    BasicBlock *BB = F.block(B);
    Word *Out = LiveOut(B);
    std::fill(Out, Out + W, Word(0));
    for (BasicBlock *S : BB->successors()) {
      const Word *SuccIn = LiveIn(S->id());
      for (std::size_t I = 0; I != W; ++I)
        Out[I] |= SuccIn[I];
      // Phi operands flowing along this edge are live out of B.
      for (const auto &I : S->instructions()) {
        const auto *Phi = dyn_cast<PhiInst>(I.get());
        if (!Phi)
          break;
        for (unsigned K = 0; K != Phi->numIncoming(); ++K)
          if (Phi->incomingBlock(K) == BB &&
              Phi->incomingValue(K).isVar())
            Set(Out, Phi->incomingValue(K).var());
      }
    }
    const Word *UE = UEVar(B), *DM = DefMask(B);
    for (std::size_t I = 0; I != W; ++I)
      In[I] = UE[I] | (Out[I] & ~DM[I]);
    Word *OldIn = LiveIn(B);
    if (!std::equal(In, In + W, OldIn)) {
      std::copy(In, In + W, OldIn);
      for (BasicBlock *P : BB->predecessors())
        WL.push(P->id());
    }
  }
  return L;
}
