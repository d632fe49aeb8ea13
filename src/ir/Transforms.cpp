//===- ir/Transforms.cpp - Basic CFG transformations ----------------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "ir/Transforms.h"

using namespace depflow;

unsigned depflow::splitCriticalEdges(Function &F) {
  F.recomputePreds();
  struct Split {
    BasicBlock *From;
    BasicBlock *To;
    unsigned SuccIdx;
  };
  std::vector<Split> Pending;
  for (const auto &BB : F.blocks()) {
    if (!BB->isSwitch())
      continue;
    std::span<BasicBlock *const> Succs = BB->successors();
    for (unsigned SI = 0, E = unsigned(Succs.size()); SI != E; ++SI)
      if (Succs[SI]->numPredecessors() > 1)
        Pending.push_back({BB.get(), Succs[SI], SI});
  }

  for (const Split &S : Pending) {
    BasicBlock *Mid = F.makeBlock(S.From->label() + "." + S.To->label());
    Mid->setJump(S.To);
    auto *Br = cast<CondBrInst>(S.From->terminator());
    // Retarget exactly the SuccIdx side (both sides may point at S.To only
    // in unverified IR; verified IR has distinct targets).
    if (S.SuccIdx == 0) {
      auto NewBr = std::make_unique<CondBrInst>(Br->cond(), Mid,
                                                Br->falseTarget());
      S.From->replaceInstruction(unsigned(S.From->size() - 1),
                                 std::move(NewBr));
    } else {
      auto NewBr =
          std::make_unique<CondBrInst>(Br->cond(), Br->trueTarget(), Mid);
      S.From->replaceInstruction(unsigned(S.From->size() - 1),
                                 std::move(NewBr));
    }
    // Fix phis in the destination: values arriving from From now arrive
    // from Mid.
    for (const auto &I : S.To->instructions()) {
      if (auto *Phi = dyn_cast<PhiInst>(I.get()))
        Phi->replaceBlockRef(S.From, Mid);
      else
        break;
    }
  }
  F.recomputePreds();
  return unsigned(Pending.size());
}

unsigned depflow::separateComputation(Function &F) {
  F.recomputePreds();
  unsigned Added = 0;

  auto HasComputation = [](const BasicBlock &BB) {
    for (const auto &I : BB.instructions())
      if (!I->isTerminator())
        return true;
    return false;
  };

  // Snapshot: we append blocks while iterating.
  std::vector<BasicBlock *> Work;
  for (const auto &BB : F.blocks()) {
    for (const auto &I : BB->instructions())
      assert(!isa<PhiInst>(I.get()) &&
             "separateComputation requires phi-free IR");
    Work.push_back(BB.get());
  }

  // Phase 1: all join splits. Done before any branch split so that every
  // predecessor's terminator still holds the edge being retargeted.
  for (BasicBlock *BB : Work) {
    if (BB->numPredecessors() <= 1 || !HasComputation(*BB))
      continue;
    BasicBlock *M = F.makeBlock(BB->label() + ".merge");
    for (BasicBlock *P : BB->predecessors())
      P->terminator()->replaceBlockRef(BB, M);
    M->setJump(BB);
    ++Added;
  }

  // Phase 2: all branch splits (they only add single-pred blocks).
  for (BasicBlock *BB : Work) {
    if (!isa_and_present<CondBrInst>(BB->terminator()) ||
        !HasComputation(*BB))
      continue;
    BasicBlock *T = F.makeBlock(BB->label() + ".br");
    auto *Br = cast<CondBrInst>(BB->terminator());
    T->setCondBr(Br->cond(), Br->trueTarget(), Br->falseTarget());
    BB->clearTerminator();
    BB->setJump(T);
    ++Added;
  }
  F.recomputePreds();
  return Added;
}

unsigned depflow::canonicalizeBranches(Function &F) {
  unsigned Rewrites = 0;
  for (const auto &BB : F.blocks()) {
    auto *Br = dyn_cast_if_present<CondBrInst>(BB->terminator());
    if (!Br || Br->trueTarget() != Br->falseTarget())
      continue;
    BasicBlock *Target = Br->trueTarget();
    BB->replaceInstruction(unsigned(BB->size() - 1),
                           std::make_unique<JumpInst>(Target));
    ++Rewrites;
  }
  if (Rewrites)
    F.recomputePreds();
  return Rewrites;
}
