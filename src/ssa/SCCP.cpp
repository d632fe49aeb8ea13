//===- ssa/SCCP.cpp - Sparse conditional constant propagation -------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "ssa/SCCP.h"

#include "ir/CFGEdges.h"
#include "ssa/SSA.h"

#include <unordered_map>

using namespace depflow;

ConstPropResult depflow::sccp(Function &F, const std::vector<VarId> &OrigOf) {
  assert(isSSAForm(F) && "SCCP requires SSA form");
  F.recomputePreds();
  CFGEdges E(F);
  unsigned NV = F.numVars();

  std::vector<ConstVal> Val(NV);
  std::vector<bool> EdgeExec(E.size(), false);
  std::vector<bool> BlockExec(F.numBlocks(), false);

  // Entry values: original variables that are never (re)defined keep their
  // entry value — 0, or ⊤ for parameters. Renamed variables start ⊥ and
  // climb as their unique definition is evaluated.
  std::vector<bool> HasDef(NV, false);
  for (const auto &BB : F.blocks())
    for (const auto &I : BB->instructions())
      if (const auto *D = dyn_cast<DefInst>(I.get()))
        HasDef[D->def()] = true;
  for (VarId V = 0; V != NV; ++V) {
    if (HasDef[V])
      continue;
    bool IsParam = false;
    for (VarId P : F.params())
      IsParam |= (OrigOf[V] == P);
    Val[V] = IsParam ? ConstVal::top() : ConstVal::cst(0);
  }

  // var -> instructions that read it (SSA use lists).
  std::unordered_map<VarId, std::vector<Instruction *>> UsersOf;
  for (const auto &BB : F.blocks())
    for (const auto &I : BB->instructions())
      for (const Operand &Op : I->operands())
        if (Op.isVar())
          UsersOf[Op.var()].push_back(I.get());

  std::vector<Instruction *> InstWL;
  std::vector<unsigned> EdgeWL;

  auto OperandVal = [&](const Operand &Op) {
    return Op.isImm() ? ConstVal::cst(Op.imm()) : Val[Op.var()];
  };

  auto SetVal = [&](VarId V, ConstVal New) {
    if (Val[V] == New)
      return;
    Val[V] = New;
    for (Instruction *U : UsersOf[V])
      InstWL.push_back(U);
  };

  auto VisitInst = [&](Instruction *I) {
    BasicBlock *BB = I->parent();
    if (!BlockExec[BB->id()])
      return;
    if (auto *Phi = dyn_cast<PhiInst>(I)) {
      ConstVal New;
      for (unsigned K = 0; K != Phi->numIncoming(); ++K) {
        // Find the CFG edge from the incoming block; include only if it is
        // executable.
        BasicBlock *Pred = Phi->incomingBlock(K);
        bool Exec = false;
        for (unsigned EId : E.inEdges(BB))
          if (E.edge(EId).From == Pred)
            Exec |= EdgeExec[EId];
        if (Exec)
          New = New.meet(OperandVal(Phi->incomingValue(K)));
      }
      SetVal(Phi->def(), New);
      return;
    }
    if (auto *D = dyn_cast<DefInst>(I)) {
      SetVal(D->def(), evalDefinition(*D, OperandVal));
      return;
    }
    if (auto *Br = dyn_cast<CondBrInst>(I)) {
      ConstVal Cond = OperandVal(Br->cond());
      if (Cond.mayBeTrue())
        EdgeWL.push_back(E.outEdge(BB, 0));
      if (Cond.mayBeFalse())
        EdgeWL.push_back(E.outEdge(BB, 1));
      return;
    }
    if (isa<JumpInst>(I))
      EdgeWL.push_back(E.outEdge(BB, 0));
  };

  auto VisitBlock = [&](BasicBlock *BB) {
    for (const auto &I : BB->instructions())
      VisitInst(I.get());
  };

  BlockExec[F.entry()->id()] = true;
  VisitBlock(F.entry());
  while (!InstWL.empty() || !EdgeWL.empty()) {
    if (!EdgeWL.empty()) {
      unsigned EId = EdgeWL.back();
      EdgeWL.pop_back();
      if (EdgeExec[EId])
        continue;
      EdgeExec[EId] = true;
      BasicBlock *To = E.edge(EId).To;
      if (!BlockExec[To->id()]) {
        BlockExec[To->id()] = true;
        VisitBlock(To);
      } else {
        // Re-evaluate φs: a new incoming edge became executable.
        for (const auto &I : To->instructions()) {
          if (!isa<PhiInst>(I.get()))
            break;
          VisitInst(I.get());
        }
      }
      continue;
    }
    Instruction *I = InstWL.back();
    InstWL.pop_back();
    VisitInst(I);
  }

  ConstPropResult R;
  R.ExecutableBlock = BlockExec;
  R.allocate(F);
  std::uint32_t Row = 0;
  for (const auto &BB : F.blocks()) {
    bool Exec = BlockExec[BB->id()];
    for (const auto &IPtr : BB->instructions()) {
      const Instruction *I = IPtr.get();
      ConstVal *Vals = R.row(Row++);
      if (!Exec)
        continue; // Rows start out ⊥-filled.
      for (unsigned Idx = 0; Idx != I->numOperands(); ++Idx)
        Vals[Idx] = OperandVal(I->operand(Idx));
    }
  }
  return R;
}
