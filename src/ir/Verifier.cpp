//===- ir/Verifier.cpp - IR well-formedness checks ------------------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "ir/Verifier.h"

#include "support/BitVector.h"

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <string_view>

using namespace depflow;

void depflow::markReachable(const Function &F, BasicBlock *Root,
                            bool Backward, std::vector<bool> &Seen) {
  // Each block is pushed at most once, so one reservation covers the walk.
  std::vector<BasicBlock *> Stack;
  Stack.reserve(F.numBlocks());
  Stack.push_back(Root);
  Seen[Root->id()] = true;
  while (!Stack.empty()) {
    BasicBlock *BB = Stack.back();
    Stack.pop_back();
    std::span<BasicBlock *const> Next =
        Backward ? BB->predecessors() : BB->successors();
    for (BasicBlock *N : Next) {
      if (!Seen[N->id()]) {
        Seen[N->id()] = true;
        Stack.push_back(N);
      }
    }
  }
}

std::vector<std::string> depflow::verifyFunction(Function &F) {
  std::vector<std::string> Errors;
  F.recomputePreds();

  if (F.numBlocks() == 0) {
    Errors.push_back("function has no blocks");
    return Errors;
  }

  BasicBlock *Exit = nullptr;
  for (const auto &BB : F.blocks()) {
    Instruction *Term = BB->terminator();
    if (!Term) {
      Errors.push_back("block '" + BB->label() + "' has no terminator");
      continue;
    }
    for (const auto &I : BB->instructions())
      if (I->isTerminator() && I.get() != Term)
        Errors.push_back("block '" + BB->label() +
                         "' has a terminator in mid-block");
    if (auto *C = dyn_cast<CondBrInst>(Term)) {
      if (C->trueTarget() == C->falseTarget())
        Errors.push_back("block '" + BB->label() +
                         "' has a conditional branch with identical targets");
    }
    if (isa<RetInst>(Term)) {
      if (Exit)
        Errors.push_back("multiple ret blocks: '" + Exit->label() + "' and '" +
                         BB->label() + "'");
      else
        Exit = BB.get();
    }
  }
  if (!Exit) {
    Errors.push_back("function has no ret block");
    return Errors;
  }

  if (!F.entry()->predecessors().empty())
    Errors.push_back("entry block '" + F.entry()->label() +
                     "' has predecessors");

  std::vector<bool> FromEntry(F.numBlocks()), ToExit(F.numBlocks());
  markReachable(F, F.entry(), /*Backward=*/false, FromEntry);
  markReachable(F, Exit, /*Backward=*/true, ToExit);
  for (const auto &BB : F.blocks()) {
    if (!FromEntry[BB->id()])
      Errors.push_back("block '" + BB->label() +
                       "' is unreachable from entry");
    if (!ToExit[BB->id()])
      Errors.push_back("block '" + BB->label() + "' cannot reach the exit");
  }

  // Phi structural checks: incoming blocks must be exactly the preds.
  for (const auto &BB : F.blocks()) {
    bool SawNonPhi = false;
    for (const auto &I : BB->instructions()) {
      auto *Phi = dyn_cast<PhiInst>(I.get());
      if (!Phi) {
        SawNonPhi = true;
        continue;
      }
      if (SawNonPhi)
        Errors.push_back("block '" + BB->label() +
                         "' has a phi after a non-phi instruction");
      std::vector<BasicBlock *> Incoming(Phi->blockRefs().begin(),
                                         Phi->blockRefs().end());
      std::vector<BasicBlock *> Preds(BB->predecessors().begin(),
                                      BB->predecessors().end());
      auto ById = [](BasicBlock *A, BasicBlock *B) {
        return A->id() < B->id();
      };
      std::sort(Incoming.begin(), Incoming.end(), ById);
      std::sort(Preds.begin(), Preds.end(), ById);
      if (Incoming != Preds)
        Errors.push_back("phi for '" + F.varName(Phi->def()) + "' in block '" +
                         BB->label() +
                         "' does not match the block's predecessors");
    }
  }
  return Errors;
}

bool depflow::isWellFormed(Function &F) { return verifyFunction(F).empty(); }

/// Concatenates \p Parts into one string with a single allocation.
static std::string concat(std::initializer_list<std::string_view> Parts) {
  std::size_t Size = 0;
  for (std::string_view P : Parts)
    Size += P.size();
  std::string S;
  S.reserve(Size);
  for (std::string_view P : Parts)
    S += P;
  return S;
}

std::vector<std::string> depflow::verifyDefUseHygiene(Function &F) {
  std::vector<std::string> Warnings;
  const unsigned NumVars = F.numVars();
  const unsigned NumBlocks = F.numBlocks();
  if (NumVars == 0 || NumBlocks == 0)
    return Warnings;
  F.recomputePreds();

  // Which variables have any assignment at all, and which are parameters.
  BitVector HasDef(NumVars), IsParam(NumVars), IsUsed(NumVars);
  for (VarId P : F.params())
    IsParam.set(P);
  for (const auto &BB : F.blocks())
    for (const auto &I : BB->instructions()) {
      if (const auto *D = dyn_cast<DefInst>(I.get()))
        HasDef.set(D->def());
      for (const Operand &Op : I->operands())
        if (Op.isVar())
          IsUsed.set(Op.var());
    }

  for (VarId V = 0; V != NumVars; ++V)
    if (IsUsed.test(V) && !HasDef.test(V) && !IsParam.test(V))
      Warnings.push_back(concat({"variable '", F.varName(V),
                                 "' is read but never assigned (reads the "
                                 "implicit 0)"}));

  // Definitely-assigned dataflow: In[b] = intersection of Out[preds];
  // entry starts from the parameter set. Phi defs count at the block head;
  // phi incoming values are uses at the end of the incoming block. The
  // per-block sets live in flat word arrays, NumWords words per block:
  // Gen[b] (every variable b assigns), In[b] and Out[b] = In[b] | Gen[b].
  using Word = std::uint64_t;
  const unsigned NumWords = (NumVars + 63) / 64;
  const Word LastMask =
      NumVars % 64 ? (Word(1) << (NumVars % 64)) - 1 : ~Word(0);
  auto setBit = [](Word *Set, unsigned V) {
    Set[V / 64] |= Word(1) << (V % 64);
  };
  auto testBit = [](const Word *Set, unsigned V) {
    return (Set[V / 64] >> (V % 64)) & 1;
  };
  std::vector<Word> Gen(std::size_t(NumBlocks) * NumWords, 0);
  std::vector<Word> In(std::size_t(NumBlocks) * NumWords, ~Word(0));
  for (unsigned B = 0; B != NumBlocks; ++B)
    In[std::size_t(B) * NumWords + NumWords - 1] = LastMask;
  std::vector<Word> Out(In);
  std::vector<Word> NewIn(NumWords);
  for (const auto &BB : F.blocks()) {
    Word *BGen = &Gen[std::size_t(BB->id()) * NumWords];
    for (const auto &I : BB->instructions())
      if (const auto *D = dyn_cast<DefInst>(I.get()))
        setBit(BGen, D->def());
  }
  const unsigned EntryId = F.entry()->id();
  Word *EntryIn = &In[std::size_t(EntryId) * NumWords];
  std::fill(EntryIn, EntryIn + NumWords, 0);
  for (VarId P : F.params())
    setBit(EntryIn, P);

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (const auto &BB : F.blocks()) {
      const unsigned B = BB->id();
      Word *BIn = &In[std::size_t(B) * NumWords];
      Word *BOut = &Out[std::size_t(B) * NumWords];
      const Word *BGen = &Gen[std::size_t(B) * NumWords];
      if (B == EntryId) {
        std::copy(BIn, BIn + NumWords, NewIn.begin());
      } else {
        std::fill(NewIn.begin(), NewIn.end(), ~Word(0));
        NewIn.back() &= LastMask;
        for (BasicBlock *P : BB->predecessors()) {
          const Word *POut = &Out[std::size_t(P->id()) * NumWords];
          for (unsigned W = 0; W != NumWords; ++W)
            NewIn[W] &= POut[W];
        }
      }
      for (unsigned W = 0; W != NumWords; ++W) {
        const Word NewOut = NewIn[W] | BGen[W];
        if (NewIn[W] != BIn[W] || NewOut != BOut[W]) {
          BIn[W] = NewIn[W];
          BOut[W] = NewOut;
          Changed = true;
        }
      }
    }
  }

  std::vector<Word> Defined(NumWords);
  for (const auto &BB : F.blocks()) {
    const Word *BIn = &In[std::size_t(BB->id()) * NumWords];
    std::copy(BIn, BIn + NumWords, Defined.begin());
    // Phi defs take effect at the head, before any non-phi use.
    for (const auto &I : BB->instructions()) {
      const auto *Phi = dyn_cast<PhiInst>(I.get());
      if (!Phi)
        break;
      for (unsigned K = 0, E = Phi->numIncoming(); K != E; ++K) {
        const Operand &Op = Phi->incomingValue(K);
        const BasicBlock *From = Phi->incomingBlock(K);
        if (Op.isVar() &&
            !testBit(&Out[std::size_t(From->id()) * NumWords], Op.var()) &&
            (HasDef.test(Op.var()) || IsParam.test(Op.var())))
          Warnings.push_back(concat({"phi use of '", F.varName(Op.var()),
                                     "' in block '", BB->label(),
                                     "' may arrive from '", From->label(),
                                     "' before any assignment (reads the "
                                     "implicit 0)"}));
      }
      setBit(Defined.data(), Phi->def());
    }
    for (const auto &I : BB->instructions()) {
      if (isa<PhiInst>(I.get()))
        continue;
      for (const Operand &Op : I->operands())
        if (Op.isVar() && !testBit(Defined.data(), Op.var()) &&
            (HasDef.test(Op.var()) || IsParam.test(Op.var())))
          Warnings.push_back(concat({"use of '", F.varName(Op.var()),
                                     "' in block '", BB->label(),
                                     "' may execute before any assignment "
                                     "(reads the implicit 0)"}));
      if (const auto *D = dyn_cast<DefInst>(I.get()))
        setBit(Defined.data(), D->def());
    }
  }
  return Warnings;
}

std::vector<std::string> depflow::verifyModuleCalls(const Module &M) {
  std::vector<std::string> Errors;
  for (unsigned FI = 0, FE = M.numFunctions(); FI != FE; ++FI) {
    const Function *F = M.function(FI);
    bool HasPhi = false;
    std::vector<const CallInst *> Calls;
    for (const auto &BB : F->blocks())
      for (const auto &I : BB->instructions()) {
        if (isa<PhiInst>(I.get()))
          HasPhi = true;
        else if (const auto *C = dyn_cast<CallInst>(I.get()))
          Calls.push_back(C);
      }
    if (HasPhi && !Calls.empty())
      Errors.push_back("function '" + F->name() +
                       "' mixes call and phi instructions; calls are a "
                       "base-IR construct and must be analyzed before SSA "
                       "separation");
    for (const CallInst *C : Calls) {
      const Function *Callee = M.lookup(C->callee());
      if (!Callee) {
        Errors.push_back("function '" + F->name() + "' calls unknown callee '" +
                         C->callee() + "'");
        continue;
      }
      if (Callee->params().size() != C->numArgs())
        Errors.push_back(
            "function '" + F->name() + "' calls '" + C->callee() + "' with " +
            std::to_string(C->numArgs()) + " argument(s), callee takes " +
            std::to_string(Callee->params().size()));
    }
  }
  return Errors;
}
