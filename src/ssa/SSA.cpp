//===- ssa/SSA.cpp - SSA construction (Cytron and DFG-derived) ------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "ssa/SSA.h"

#include "dataflow/Liveness.h"
#include "graph/Dominators.h"
#include "support/Worklist.h"

using namespace depflow;

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

  PhiPlacement Placement(F.numBlocks());
  for (VarId V = 0; V != F.numVars(); ++V) {
    // Definition blocks (the entry is an implicit def site of every var).
    std::vector<unsigned> DefBlocks{F.entry()->id()};
    for (const auto &BB : F.blocks())
      for (const auto &I : BB->instructions())
        if (const auto *D = dyn_cast<DefInst>(I.get()))
          if (D->def() == V) {
            DefBlocks.push_back(BB->id());
            break;
          }

    // Iterated dominance frontier via the classic worklist.
    Worklist WL(F.numBlocks());
    BitVector InIDF(F.numBlocks());
    for (unsigned B : DefBlocks)
      WL.push(B);
    while (!WL.empty()) {
      unsigned B = WL.pop();
      for (unsigned W : DF[B]) {
        if (InIDF.test(W))
          continue;
        InIDF.set(W);
        WL.push(W);
      }
    }
    for (int B = InIDF.findFirst(); B >= 0; B = InIDF.findNext(unsigned(B))) {
      if (Pruned && !Live.LiveIn[unsigned(B)].test(V))
        continue;
      Placement[unsigned(B)].insert(V);
    }
  }
  return Placement;
}

PhiPlacement depflow::dfgPhiPlacement(Function &F, const DepFlowGraph &G) {
  // Trivial-φ collapse in the Aycock-Horspool style, pessimistic and
  // order-independent: every merge starts as a φ; a merge whose inputs all
  // resolve (through transparent switch/use nodes and already-collapsed
  // merges) to one node other than itself is trivial and collapses onto
  // it. Each round collapses at least one merge, so this terminates.
  std::vector<int> Parent(G.numNodes(), -1);
  std::vector<unsigned> Merges;
  for (unsigned N = 0; N != G.numNodes(); ++N) {
    const auto &Node = G.node(N);
    switch (Node.Kind) {
    case DepFlowGraph::NodeKind::Switch:
    case DepFlowGraph::NodeKind::Use:
      // Transparent: forward to the (single) feeding source.
      if (!G.inEdges(N).empty())
        Parent[N] = int(G.edge(G.inEdges(N)[0]).Src);
      break;
    case DepFlowGraph::NodeKind::Merge:
      Merges.push_back(N);
      break;
    default:
      break;
    }
  }

  // Resolve with path compression.
  auto Resolve = [&](unsigned N) {
    unsigned Cur = N;
    while (Parent[Cur] >= 0)
      Cur = unsigned(Parent[Cur]);
    while (Parent[N] >= 0) {
      int Next = Parent[N];
      Parent[N] = int(Cur);
      N = unsigned(Next);
    }
    return Cur;
  };

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned M : Merges) {
      if (Parent[M] >= 0)
        continue; // Already collapsed.
      int Single = -1;
      bool Trivial = true;
      for (unsigned InId : G.inEdges(M)) {
        unsigned O = Resolve(G.edge(InId).Src);
        if (O == M)
          continue; // Self loop-back contributes nothing.
        if (Single < 0) {
          Single = int(O);
        } else if (Single != int(O)) {
          Trivial = false;
          break;
        }
      }
      if (Trivial && Single >= 0) {
        Parent[M] = Single;
        Changed = true;
      }
    }
  }

  PhiPlacement Placement(F.numBlocks());
  for (unsigned M : Merges) {
    const auto &Node = G.node(M);
    if (!G.isControl(Node.Var) && Parent[M] < 0)
      Placement[Node.Block->id()].insert(Node.Var);
  }
  return Placement;
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

  unsigned OriginalVars = F.numVars();
  std::vector<VarId> OrigOf(OriginalVars);
  for (VarId V = 0; V != OriginalVars; ++V)
    OrigOf[V] = V;

  // Renaming stacks: the original name itself is the entry definition.
  std::vector<std::vector<VarId>> Stack(OriginalVars);
  for (VarId V = 0; V != OriginalVars; ++V)
    Stack[V].push_back(V);

  auto FreshName = [&](VarId V) {
    VarId NewV = F.makeFreshVar(F.varName(V) + "." +
                                std::to_string(Stack[V].size()));
    OrigOf.resize(F.numVars(), 0);
    OrigOf[NewV] = V;
    return NewV;
  };

  // Dominator-tree preorder walk with explicit push counts for unwinding.
  struct Frame {
    unsigned Block;
    unsigned ChildCursor = 0;
    std::vector<std::pair<VarId, VarId>> Pushed; // (orig, new)
  };
  std::vector<Frame> Stk;
  Stk.push_back({F.entry()->id()});

  auto ProcessBlock = [&](Frame &Fr) {
    BasicBlock *BB = F.block(Fr.Block);
    for (const auto &IPtr : BB->instructions()) {
      Instruction *I = IPtr.get();
      if (auto *Phi = dyn_cast<PhiInst>(I)) {
        VarId V = OrigOf[Phi->def()];
        VarId NewV = FreshName(V);
        Phi->setDef(NewV);
        Stack[V].push_back(NewV);
        Fr.Pushed.push_back({V, NewV});
        continue;
      }
      for (unsigned Idx = 0; Idx != I->numOperands(); ++Idx) {
        const Operand &Op = I->operand(Idx);
        if (Op.isVar())
          I->setOperand(Idx, Operand::var(Stack[OrigOf[Op.var()]].back()));
      }
      if (auto *D = dyn_cast<DefInst>(I)) {
        VarId V = D->def();
        VarId NewV = FreshName(V);
        D->setDef(NewV);
        Stack[V].push_back(NewV);
        Fr.Pushed.push_back({V, NewV});
      }
    }
    // Feed φs in CFG successors.
    for (BasicBlock *S : BB->successors()) {
      for (const auto &IPtr : S->instructions()) {
        auto *Phi = dyn_cast<PhiInst>(IPtr.get());
        if (!Phi)
          break;
        Phi->addIncoming(BB, Operand::var(Stack[OrigOf[Phi->def()]].back()));
      }
    }
  };

  ProcessBlock(Stk.back());
  while (!Stk.empty()) {
    Frame &Fr = Stk.back();
    const auto &Children = DT.children(Fr.Block);
    if (Fr.ChildCursor < Children.size()) {
      unsigned Child = Children[Fr.ChildCursor++];
      Stk.push_back({Child});
      ProcessBlock(Stk.back());
    } else {
      for (auto It = Fr.Pushed.rbegin(); It != Fr.Pushed.rend(); ++It)
        Stack[It->first].pop_back();
      Stk.pop_back();
    }
  }
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
