//===- dataflow/ConstantPropagation.cpp - Constant propagation ------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "dataflow/ConstantPropagation.h"

#include "dataflow/DefUse.h"
#include "support/Statistic.h"

#include <cassert>
#include <optional>

using namespace depflow;

// Telemetry behind the paper's central speedup claim: the CFG algorithm
// moves V-wide vectors across edges (SlotsPropagated counts every slot
// copied), the DFG algorithm moves single-variable tokens. bench_constprop
// fits the ratio of the two work totals against V.
DEPFLOW_STATISTIC(NumCPCFGWorklistPushes, "constprop",
                  "CFG engine: block worklist pushes");
DEPFLOW_STATISTIC(NumCPCFGWorklistPops, "constprop",
                  "CFG engine: block worklist pops");
DEPFLOW_STATISTIC(NumCPCFGSlotsPropagated, "constprop",
                  "CFG engine: vector slots copied across CFG edges");
DEPFLOW_STATISTIC(NumCPCFGLatticeLowerings, "constprop",
                  "CFG engine: per-variable edge values changed");
DEPFLOW_STATISTIC(NumCPDFGWorklistPushes, "constprop",
                  "DFG engine: node worklist pushes");
DEPFLOW_STATISTIC(NumCPDFGWorklistPops, "constprop",
                  "DFG engine: node worklist pops");
DEPFLOW_STATISTIC(NumCPDFGTokensSent, "constprop",
                  "DFG engine: tokens written to DFG edges");
DEPFLOW_STATISTIC(NumCPDFGLatticeLowerings, "constprop",
                  "DFG engine: token writes that changed the edge value");
DEPFLOW_STATISTIC(NumCPDefUseRounds, "constprop",
                  "Def-use engine: rounds to reach the fixed point");
DEPFLOW_HIST_STATISTIC(HistCPTokensPerEdge, "constprop",
                       "DFG engine: tokens sent per edge over a solve");

namespace {

/// If the last definition of \p CondVar in \p BB is an equality test
/// against an immediate (`t = x == c` or `t = c == x`, and Ne likewise),
/// returns the tested variable, the constant, and whether the constant
/// side is the *true* side (Eq) or the *false* side (Ne).
struct PredicateTest {
  VarId Var;
  std::int64_t Value;
  bool OnTrueSide;
};

std::optional<PredicateTest> predicateTest(const BasicBlock *BB,
                                           VarId CondVar) {
  const BinaryInst *LastDef = nullptr;
  for (const auto &I : BB->instructions()) {
    if (const auto *D = dyn_cast<DefInst>(I.get()))
      if (D->def() == CondVar)
        LastDef = dyn_cast<BinaryInst>(D);
  }
  if (!LastDef ||
      (LastDef->op() != BinOp::Eq && LastDef->op() != BinOp::Ne))
    return std::nullopt;
  const Operand &A = LastDef->lhs();
  const Operand &B = LastDef->rhs();
  bool True = LastDef->op() == BinOp::Eq;
  if (A.isVar() && B.isImm())
    return PredicateTest{A.var(), B.imm(), True};
  if (A.isImm() && B.isVar())
    return PredicateTest{B.var(), A.imm(), True};
  return std::nullopt;
}

/// The constant propagation instance of the engine's forward client
/// contract: Kildall's lattice, evalDefinition as the transfer, and the
/// Multiflow predicate refinement as the two precision hooks (at the
/// switch nodes in sparse mode, on branch-side vectors in dense mode —
/// possible here and impossible for SSA-based formulations, whose edges
/// bypass the switches; Section 4).
class ConstPropClient {
  Function &F;
  bool Refine;

public:
  using Value = ConstVal;

  ConstPropClient(Function &F, bool Refine) : F(F), Refine(Refine) {}

  static ConstVal bottom() { return ConstVal::bottom(); }
  static bool equal(const ConstVal &A, const ConstVal &B) { return A == B; }
  ConstVal meet(const ConstVal &A, const ConstVal &B) const {
    return A.meet(B);
  }
  ConstVal fromImmediate(std::int64_t V) const { return ConstVal::cst(V); }

  /// Interpreter semantics: variables start at 0; parameters (and the
  /// control token) are unknown.
  ConstVal entryValue(VarId V, bool IsControl) const {
    if (IsControl)
      return ConstVal::top();
    for (VarId P : F.params())
      if (P == V)
        return ConstVal::top();
    return ConstVal::cst(0);
  }

  bool mayBeTrue(const ConstVal &V) const { return V.mayBeTrue(); }
  bool mayBeFalse(const ConstVal &V) const { return V.mayBeFalse(); }

  template <typename GetFn>
  ConstVal transfer(const DefInst &D, GetFn Get, bool Executable) const {
    return evalDefinition(D, Get, Executable);
  }

  void refineSwitch(const BasicBlock *BB, const CondBrInst *Br,
                    const ConstVal &Pred, const ConstVal &In, VarId Var,
                    ConstVal &OutTrue, ConstVal &OutFalse) const {
    if (!Refine || !Br->cond().isVar() || !Pred.isTop() || !In.isTop())
      return;
    if (std::optional<PredicateTest> Test =
            predicateTest(BB, Br->cond().var());
        Test && Test->Var == Var)
      (Test->OnTrueSide ? OutTrue : OutFalse) = ConstVal::cst(Test->Value);
  }

  void refineBranchVector(const BasicBlock *BB, const CondBrInst *Br,
                          const ConstVal &Cond, ConstVal *Vec,
                          bool TrueSide) const {
    // `if (x == c)` pins x to c on the true side (`x != c` on the false
    // side) when x was still varying.
    if (!Refine || !Br->cond().isVar() || !Cond.isTop())
      return;
    std::optional<PredicateTest> Test =
        predicateTest(BB, Br->cond().var());
    if (!Test || Test->OnTrueSide != TrueSide || !Vec[Test->Var].isTop())
      return;
    Vec[Test->Var] = ConstVal::cst(Test->Value);
  }
};

} // namespace

unsigned ConstPropResult::numConstantUses() const {
  unsigned N = 0;
  forEachInstruction([&](const Instruction *, const ConstVal *Vals,
                         unsigned NumVals) {
    for (unsigned Idx = 0; Idx != NumVals; ++Idx)
      N += Vals[Idx].isConst();
  });
  return N;
}

unsigned ConstPropResult::numConstantVarUses() const {
  unsigned N = 0;
  forEachInstruction([&](const Instruction *I, const ConstVal *Vals,
                         unsigned NumVals) {
    for (unsigned Idx = 0; Idx != NumVals; ++Idx)
      if (I->operand(Idx).isVar())
        N += Vals[Idx].isConst();
  });
  return N;
}

Status depflow::runConstantPropagation(Function &F, const DepFlowGraph *G,
                                       EvalMode Mode, ConstPropResult &Out,
                                       bool PredicateRefinement) {
  ConstPropClient C(F, PredicateRefinement);
  SparseEngineCounters SparseCtr;
  SparseCtr.Pushes = &NumCPDFGWorklistPushes;
  SparseCtr.Pops = &NumCPDFGWorklistPops;
  SparseCtr.Tokens = &NumCPDFGTokensSent;
  SparseCtr.Lowerings = &NumCPDFGLatticeLowerings;
  SparseCtr.TokensPerEdge = &HistCPTokensPerEdge;
  DenseEngineCounters DenseCtr;
  DenseCtr.Pushes = &NumCPCFGWorklistPushes;
  DenseCtr.Pops = &NumCPCFGWorklistPops;
  DenseCtr.Slots = &NumCPCFGSlotsPropagated;
  DenseCtr.Lowerings = &NumCPCFGLatticeLowerings;
  return solveForward(F, G, Mode, C, Out, SparseCtr, DenseCtr);
}

//===----------------------------------------------------------------------===//
// Def-use chain algorithm (all-paths constants only)
//===----------------------------------------------------------------------===//

ConstPropResult depflow::defUseConstantPropagation(Function &F,
                                                   const ReachingDefs &RD) {
  // Value per definition site; round-robin to a fixed point (values climb
  // the three-level lattice, so few rounds are needed).
  std::unordered_map<const Instruction *, ConstVal> DefVal;
  std::vector<ConstVal> EntryVal(F.numVars(), ConstVal::cst(0));
  for (VarId P : F.params())
    EntryVal[P] = ConstVal::top();

  auto UseVal = [&](const Instruction *I, unsigned OpIdx, VarId V) {
    ConstVal Out;
    for (const Instruction *D : RD.defsReaching(I, OpIdx)) {
      if (!D)
        Out = Out.meet(EntryVal[V]);
      else if (auto It = DefVal.find(D); It != DefVal.end())
        Out = Out.meet(It->second);
    }
    return Out;
  };

  bool Changed = true;
  while (Changed) {
    Changed = false;
    ++NumCPDefUseRounds;
    for (const auto &BB : F.blocks()) {
      for (const auto &IPtr : BB->instructions()) {
        const auto *D = dyn_cast<DefInst>(IPtr.get());
        if (!D)
          continue;
        ConstVal New = evalDefinition(*D, [&](const Operand &Op) {
          for (unsigned Idx = 0; Idx != D->numOperands(); ++Idx)
            if (D->operand(Idx) == Op)
              return UseVal(D, Idx, Op.var());
          depflow_unreachable("operand not found on its instruction");
        });
        if (New != DefVal[D]) {
          DefVal[D] = New;
          Changed = true;
        }
      }
    }
  }

  ConstPropResult R;
  R.ExecutableBlock.assign(F.numBlocks(), true);
  R.allocate(F);
  std::uint32_t Row = 0;
  for (const auto &BB : F.blocks()) {
    for (const auto &IPtr : BB->instructions()) {
      const Instruction *I = IPtr.get();
      ConstVal *Vals = R.row(Row++);
      for (unsigned Idx = 0; Idx != I->numOperands(); ++Idx) {
        const Operand &Op = I->operand(Idx);
        Vals[Idx] =
            Op.isImm() ? ConstVal::cst(Op.imm()) : UseVal(I, Idx, Op.var());
      }
    }
  }
  return R;
}

//===----------------------------------------------------------------------===//
// Applying the result
//===----------------------------------------------------------------------===//

ConstantsApplied depflow::applyConstantsAndDCE(Function &F,
                                               const ConstPropResult &CP) {
  ConstantsApplied Out;
  auto BlockExec = [&](const BasicBlock *BB) {
    return CP.ExecutableBlock.empty() || CP.ExecutableBlock[BB->id()];
  };

  // 1. Rewrite constant variable uses to immediates, reading each
  // instruction's values by its canonical row (the same walk).
  std::uint32_t Row = 0;
  for (const auto &BB : F.blocks()) {
    if (!BlockExec(BB.get())) {
      Row += std::uint32_t(BB->size());
      continue;
    }
    for (const auto &IPtr : BB->instructions()) {
      Instruction *I = IPtr.get();
      const ConstVal *Vals = CP.row(Row++);
      for (unsigned Idx = 0; Idx != I->numOperands(); ++Idx) {
        if (!I->operand(Idx).isVar())
          continue;
        ConstVal V = Vals[Idx];
        if (V.isConst()) {
          I->setOperand(Idx, Operand::imm(V.value()));
          ++Out.OperandsFolded;
        }
      }
    }
  }
  assert(Row == CP.size() && "the result's rows follow F's canonical walk");

  // 2+3. Simplify branches whose condition is now an immediate and drop
  // the blocks that become unreachable — but only when the exit survives.
  // A program that provably never leaves a loop would otherwise lose its
  // exit and stop verifying; we leave such functions' control flow alone.
  {
    // Trial reachability under simplified branches.
    std::vector<bool> Reach(F.numBlocks(), false);
    std::vector<BasicBlock *> Stack{F.entry()};
    Reach[F.entry()->id()] = true;
    while (!Stack.empty()) {
      BasicBlock *BB = Stack.back();
      Stack.pop_back();
      auto Push = [&](BasicBlock *S) {
        if (!Reach[S->id()]) {
          Reach[S->id()] = true;
          Stack.push_back(S);
        }
      };
      auto *Br = dyn_cast_if_present<CondBrInst>(BB->terminator());
      if (Br && Br->cond().isImm()) {
        Push(Br->cond().imm() != 0 ? Br->trueTarget() : Br->falseTarget());
      } else {
        for (BasicBlock *S : BB->successors())
          Push(S);
      }
    }
    // Under the simplified branches, every surviving block must still
    // reach the exit, or the result would not verify (this triggers only
    // for code whose termination the constants disprove; such functions
    // keep their original control flow).
    bool Safe = F.exit() && Reach[F.exit()->id()];
    if (Safe) {
      std::vector<bool> ReachesExit(F.numBlocks(), false);
      std::vector<BasicBlock *> Back{F.exit()};
      ReachesExit[F.exit()->id()] = true;
      while (!Back.empty()) {
        BasicBlock *BB = Back.back();
        Back.pop_back();
        for (BasicBlock *P : BB->predecessors()) {
          if (ReachesExit[P->id()])
            continue;
          // Respect the simplified branch: a constant branch only reaches
          // BB if BB is the taken side.
          auto *Br = dyn_cast<CondBrInst>(P->terminator());
          if (Br && Br->cond().isImm()) {
            BasicBlock *Taken = Br->cond().imm() != 0 ? Br->trueTarget()
                                                      : Br->falseTarget();
            if (Taken != BB)
              continue;
          }
          ReachesExit[P->id()] = true;
          Back.push_back(P);
        }
      }
      for (unsigned B = 0; B != F.numBlocks() && Safe; ++B)
        if (Reach[B] && !ReachesExit[B])
          Safe = false;
    }
    if (Safe) {
      for (const auto &BB : F.blocks()) {
        auto *Br = dyn_cast_if_present<CondBrInst>(BB->terminator());
        if (!Br || !Br->cond().isImm())
          continue;
        BasicBlock *Target =
            Br->cond().imm() != 0 ? Br->trueTarget() : Br->falseTarget();
        BB->replaceInstruction(unsigned(BB->size() - 1),
                               std::make_unique<JumpInst>(Target));
        Out.CFGChanged = true;
      }
      const unsigned Blocks = F.numBlocks();
      F.eraseBlocks(Reach);
      Out.CFGChanged |= F.numBlocks() != Blocks;
    }
  }

  // 4. Remove pure definitions of variables that are never used. read() is
  // observable (it consumes input), so it stays.
  bool Changed = true;
  while (Changed) {
    Changed = false;
    std::vector<bool> Used(F.numVars(), false);
    for (const auto &BB : F.blocks())
      for (const auto &I : BB->instructions())
        for (const Operand &Op : I->operands())
          if (Op.isVar())
            Used[Op.var()] = true;
    for (const auto &BB : F.blocks()) {
      for (unsigned Idx = 0; Idx != BB->size();) {
        const Instruction *I = BB->instructions()[Idx].get();
        const auto *D = dyn_cast<DefInst>(I);
        // Reads and calls are observable (they consume the shared input
        // stream), so DCE may never drop them even when the result is dead.
        if (D && !isa<ReadInst>(D) && !isa<CallInst>(D) && !Used[D->def()]) {
          BB->removeInstruction(Idx);
          Changed = Out.DefsRemoved = true;
        } else {
          ++Idx;
        }
      }
    }
  }
  F.recomputePreds();
  return Out;
}
