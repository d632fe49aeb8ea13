//===- ssa/SSA.cpp - SSA construction (Cytron and DFG-derived) ------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "ssa/SSA.h"

#include "dataflow/Liveness.h"
#include "graph/Dominators.h"
#include "support/Arena.h"
#include "support/BitVector.h"
#include "support/Worklist.h"

#include <algorithm>

using namespace depflow;

/// Turns the list lengths in Off[1..] into each list's start, so that
/// Off[K + 1] can serve as list K's append cursor: once every list is
/// filled, Off holds the CSR offsets. Returns the total length.
static std::uint32_t startCursors(std::vector<std::uint32_t> &Off) {
  std::uint32_t Sum = 0;
  for (std::size_t K = 1; K != Off.size(); ++K)
    Sum += std::exchange(Off[K], Sum);
  return Sum;
}

PhiPlacement::PhiPlacement(unsigned NumBlocks,
                           std::span<const std::pair<unsigned, VarId>> Phis)
    : Off(NumBlocks + 1, 0), Vars(Phis.size()) {
  // A stable counting sort by block keeps each block's variables in the
  // ascending order the pairs come in. Off[B + 1] serves as block B's
  // cursor: it starts at B's first slot and ends at B's end.
  for (const auto &[B, V] : Phis)
    ++Off[B + 1];
  startCursors(Off);
  for (const auto &[B, V] : Phis)
    Vars[Off[B + 1]++] = V;
}

bool PhiPlacement::contains(unsigned B, VarId V) const {
  std::span<const VarId> At = (*this)[B];
  return std::binary_search(At.begin(), At.end(), V);
}

PhiPlacement depflow::cytronPhiPlacement(Function &F, bool Pruned) {
  F.recomputePreds();
  DomTree DT(F, DomTree::Forward);
  return cytronPhiPlacement(F, Pruned, DT);
}

PhiPlacement depflow::cytronPhiPlacement(Function &F, bool Pruned,
                                         const DomTree &DT) {
  F.recomputePreds();
  auto DF = dominanceFrontiers(DT);
  Liveness Live = Pruned ? computeLiveness(F) : Liveness{};
  const unsigned NB = F.numBlocks(), NV = F.numVars();

  // Every variable's definition blocks, from one walk over the function
  // (counted, then filled): the entry (an implicit def site of every
  // variable), then each block assigning the variable, once. DefOff[V + 1]
  // counts V's blocks, then serves as V's fill cursor.
  std::vector<std::uint32_t> DefOff(NV + 1, 1);
  DefOff[0] = 0;
  std::vector<unsigned> Last(NV, NB);
  auto ForEachDefBlock = [&](auto Visit) {
    for (const auto &BB : F.blocks())
      for (const auto &I : BB->instructions())
        if (const auto *D = dyn_cast<DefInst>(I.get()))
          if (Last[D->def()] != BB->id()) {
            Last[D->def()] = BB->id();
            Visit(D->def(), BB->id());
          }
  };
  ForEachDefBlock([&](VarId V, unsigned) { ++DefOff[V + 1]; });
  std::vector<unsigned> DefBlocks(startCursors(DefOff));
  for (VarId V = 0; V != NV; ++V)
    DefBlocks[DefOff[V + 1]++] = F.entry()->id();
  std::fill(Last.begin(), Last.end(), NB);
  ForEachDefBlock([&](VarId V, unsigned B) { DefBlocks[DefOff[V + 1]++] = B; });

  // Iterated dominance frontier via the classic worklist, per variable.
  std::vector<std::pair<unsigned, VarId>> Phis;
  Worklist WL(NB);
  BitVector InIDF(NB);
  for (VarId V = 0; V != NV; ++V) {
    InIDF.reset();
    for (std::uint32_t K = DefOff[V]; K != DefOff[V + 1]; ++K)
      WL.push(DefBlocks[K]);
    while (!WL.empty()) {
      unsigned B = WL.pop();
      for (unsigned W : DF[B]) {
        if (InIDF.test(W))
          continue;
        InIDF.set(W);
        WL.push(W);
      }
    }
    for (int B = InIDF.findFirst(); B >= 0; B = InIDF.findNext(unsigned(B)))
      if (!Pruned || Live.liveIn(unsigned(B), V))
        Phis.push_back({unsigned(B), V});
  }
  return PhiPlacement(NB, Phis);
}

PhiPlacement depflow::dfgPhiPlacement(const DFGPlan &Plan) {
  const Function &F = Plan.function();
  const CFGEdges &E = Plan.cfgEdges();
  const unsigned NB = F.numBlocks(), EntryId = F.entry()->id();
  const std::size_t NE = E.size();

  // Value ids: the merge at block B is B, the last def of block B is
  // NB + B, the entry value is 2 * NB. A block's earlier defs never leave
  // it, so the last def stands for all of them.
  const std::uint32_t EntryValue = 2 * NB, NoValue = 2 * NB + 1;

  // Per variable, reused across variables:
  //  * Src: per CFG edge, the value crossing it (read only where live);
  //  * Rep: per merge, the value it collapsed onto, or itself;
  //  * user lists: per surviving merge X, the merges with an input that
  //    resolves to X (Head/Tail/Next/User, at most one entry per merge
  //    input).
  ScratchBlock Scratch(ScratchBlock::bytesFor<std::uint32_t>(NE) +
                       ScratchBlock::bytesFor<std::uint32_t>(NB) +
                       2 * ScratchBlock::bytesFor<std::int32_t>(NB) +
                       ScratchBlock::bytesFor<std::int32_t>(NE) +
                       ScratchBlock::bytesFor<std::uint32_t>(NE));
  std::uint32_t *Src = Scratch.take<std::uint32_t>(NE);
  std::uint32_t *Rep = Scratch.take<std::uint32_t>(NB);
  std::int32_t *Head = Scratch.take<std::int32_t>(NB);
  std::int32_t *Tail = Scratch.take<std::int32_t>(NB);
  std::int32_t *Next = Scratch.take<std::int32_t>(NE);
  std::uint32_t *User = Scratch.take<std::uint32_t>(NE);
  assert(Scratch.remaining() == 0 && "placement scratch sized exactly");
  Worklist WL(NB);
  std::uint32_t NumUsers = 0;

  // Resolves a value through collapsed merges, with path compression.
  auto Find = [&](std::uint32_t X) {
    std::uint32_t Root = X;
    while (Root < NB && Rep[Root] != Root)
      Root = Rep[Root];
    while (X < NB && Rep[X] != X) {
      const std::uint32_t Up = Rep[X];
      Rep[X] = Root;
      X = Up;
    }
    return Root;
  };
  auto AddUser = [&](std::uint32_t X, unsigned M) {
    User[NumUsers] = M;
    Next[NumUsers] = -1;
    if (Head[X] < 0)
      Head[X] = std::int32_t(NumUsers);
    else
      Next[Tail[X]] = std::int32_t(NumUsers);
    Tail[X] = std::int32_t(NumUsers++);
  };
  // Collapses merge M onto the one value its inputs other than M resolve
  // to, if there is one. On its first check (\p Register), M joins the
  // user list of every merge its inputs resolve to. Every merge reading M
  // now reads that value: the checked ones are queued again, and M's user
  // list moves to the value when it is a merge.
  auto TryCollapse = [&](unsigned M, bool Register) {
    std::uint32_t Single = NoValue;
    bool Trivial = true;
    for (unsigned EId : E.inEdges(F.block(M))) {
      const std::uint32_t X = Find(Src[EId]);
      if (X == M)
        continue; // Self loop-back contributes nothing.
      if (Register && X < NB)
        AddUser(X, M);
      if (Single == NoValue) {
        Single = X;
      } else if (Single != X) {
        Trivial = false;
        if (!Register)
          break;
      }
    }
    if (!Trivial || Single == NoValue)
      return;
    Rep[M] = Single;
    for (std::int32_t U = Head[M]; U >= 0; U = Next[U])
      if (Rep[User[U]] == User[U])
        WL.push(User[U]);
    if (Single < NB && Head[M] >= 0) {
      if (Head[Single] < 0)
        Head[Single] = Head[M];
      else
        Next[Tail[Single]] = Head[M];
      Tail[Single] = Tail[M];
    }
  };

  std::vector<std::pair<unsigned, VarId>> Phis;
  Phis.reserve(Plan.numLiveMerges());
  for (VarId V = 0; V != Plan.controlVar(); ++V) {
    // The value on each live CFG edge, in RPO: a block's outgoing value is
    // its last def, else its incoming value (the entry's, its merge, or
    // its single predecessor's edge); uses and switches pass it through.
    // A bypassed region exit carries its entry edge's value, and the entry
    // edge precedes the exit in RPO. Every merge starts as a φ.
    Plan.forEachVisitedBlock(V, [&](DFGPlan::Block BR) {
      const unsigned B = BR.id();
      const BasicBlock *BB = F.block(B);
      std::uint32_t Cur = NoValue;
      if (BR.isMerge() && Plan.liveIn(B, V)) {
        Rep[B] = B;
        Head[B] = Tail[B] = -1;
        Cur = B;
      }
      if (Plan.assigns(B, V))
        Cur = NB + B;
      else if (B == EntryId)
        Cur = EntryValue;
      else if (!BR.isMerge() && Plan.liveIn(B, V))
        Cur = Src[E.inEdges(BB)[0]];
      for (unsigned EId : E.outEdges(BB)) {
        const int From = BR.closesRegion() ? Plan.bypassedFrom(EId, V) : -1;
        Src[EId] = From >= 0 ? Src[From] : Cur;
      }
    });

    // The trivial-φ collapse, pessimistic. One pass in RPO checks every
    // merge once; its inputs from earlier blocks are settled by then. A
    // merge that collapses later requeues the merges reading it, which
    // are the ones with loop-carried inputs, until nothing changes. A
    // merge that can collapse stays collapsible as others collapse, so the
    // surviving set does not depend on the order.
    NumUsers = 0;
    Plan.forEachLiveMerge(V, [&](DFGPlan::Block BR) {
      TryCollapse(BR.id(), /*Register=*/true);
    });
    while (!WL.empty())
      if (const unsigned M = WL.pop(); Rep[M] == M)
        TryCollapse(M, /*Register=*/false);
    Plan.forEachLiveMerge(V, [&](DFGPlan::Block BR) {
      if (Rep[BR.id()] == BR.id())
        Phis.push_back({BR.id(), V});
    });
  }
  return PhiPlacement(NB, Phis);
}

PhiPlacement depflow::dfgPhiPlacement(Function &F) {
  F.recomputePreds();
  CFGEdges E(F);
  return dfgPhiPlacement(DFGPlan(F, E));
}

std::vector<VarId> depflow::applySSA(Function &F,
                                     const PhiPlacement &Placement) {
  F.recomputePreds();
  DomTree DT(F, DomTree::Forward);
  return applySSA(F, Placement, DT);
}

std::vector<VarId> depflow::applySSA(Function &F,
                                     const PhiPlacement &Placement,
                                     const DomTree &DT) {
  F.recomputePreds();

  // Insert empty φs defining their original variable. A φ's original
  // variable is OrigOf[Phi->def()] before and after it is renamed, since
  // FreshName records every new name.
  for (unsigned B = 0; B != F.numBlocks(); ++B)
    for (VarId V : Placement[B])
      F.block(B)->appendPhi(V);

  // Every definition (φs included) gets at most one fresh name, and fresh
  // ids are dense from OriginalVars on, so OrigOf is sized once.
  const unsigned OriginalVars = F.numVars();
  std::size_t NumDefs = 0;
  for (const auto &BB : F.blocks())
    for (const auto &I : BB->instructions())
      NumDefs += isa<DefInst>(I.get());
  std::vector<VarId> OrigOf(OriginalVars + NumDefs);
  for (VarId V = 0; V != OriginalVars; ++V)
    OrigOf[V] = V;

  // Renaming state: each original variable's current name (the original
  // name itself is the entry definition) and the number of names on its
  // stack, which numbers the next version. One undo stack of (original,
  // previous name) serves the whole dominator-tree walk.
  std::vector<VarId> Cur(OriginalVars);
  std::vector<unsigned> Depth(OriginalVars, 1);
  for (VarId V = 0; V != OriginalVars; ++V)
    Cur[V] = V;
  std::vector<std::pair<VarId, VarId>> Undo;
  Undo.reserve(NumDefs);

  auto Define = [&](VarId V) {
    const VarId NewV =
        F.makeFreshVar(F.varName(V) + "." + std::to_string(Depth[V]));
    assert(NewV < OrigOf.size() && "one fresh name per definition");
    OrigOf[NewV] = V;
    Undo.push_back({V, Cur[V]});
    Cur[V] = NewV;
    ++Depth[V];
    return NewV;
  };

  auto ProcessBlock = [&](unsigned B) {
    BasicBlock *BB = F.block(B);
    for (const auto &IPtr : BB->instructions()) {
      Instruction *I = IPtr.get();
      if (auto *Phi = dyn_cast<PhiInst>(I)) {
        Phi->setDef(Define(OrigOf[Phi->def()]));
        continue;
      }
      for (unsigned Idx = 0; Idx != I->numOperands(); ++Idx) {
        const Operand &Op = I->operand(Idx);
        if (Op.isVar())
          I->setOperand(Idx, Operand::var(Cur[OrigOf[Op.var()]]));
      }
      if (auto *D = dyn_cast<DefInst>(I))
        D->setDef(Define(D->def()));
    }
    // Feed φs in CFG successors.
    for (BasicBlock *S : BB->successors()) {
      for (const auto &IPtr : S->instructions()) {
        auto *Phi = dyn_cast<PhiInst>(IPtr.get());
        if (!Phi)
          break;
        Phi->addIncoming(BB, Operand::var(Cur[OrigOf[Phi->def()]]));
      }
    }
  };

  // Dominator-tree preorder walk; each frame remembers the undo stack's
  // height at its block's entry and unwinds to it on the way out.
  struct Frame {
    unsigned Block;
    unsigned ChildCursor;
    std::size_t UndoMark;
  };
  std::vector<Frame> Stk;
  Stk.reserve(F.numBlocks());
  Stk.push_back({F.entry()->id(), 0, 0});
  ProcessBlock(F.entry()->id());
  while (!Stk.empty()) {
    Frame &Fr = Stk.back();
    const auto &Children = DT.children(Fr.Block);
    if (Fr.ChildCursor < Children.size()) {
      const unsigned Child = Children[Fr.ChildCursor++];
      Stk.push_back({Child, 0, Undo.size()});
      ProcessBlock(Child);
    } else {
      for (; Undo.size() != Fr.UndoMark; Undo.pop_back()) {
        Cur[Undo.back().first] = Undo.back().second;
        --Depth[Undo.back().first];
      }
      Stk.pop_back();
    }
  }
  // Definitions in blocks the entry does not reach keep their names.
  OrigOf.resize(F.numVars());
  F.recomputePreds();
  return OrigOf;
}

bool depflow::isSSAForm(const Function &F) {
  std::vector<unsigned> DefCount(F.numVars(), 0);
  for (const auto &BB : F.blocks())
    for (const auto &I : BB->instructions())
      if (const auto *D = dyn_cast<DefInst>(I.get()))
        if (++DefCount[D->def()] > 1)
          return false;
  return true;
}
