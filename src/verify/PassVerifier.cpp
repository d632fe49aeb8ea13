//===- verify/PassVerifier.cpp - Post-pass invariant checkers -------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "verify/PassVerifier.h"

#include "cdg/ControlDependence.h"
#include "core/DepFlowGraph.h"
#include "dataflow/DefUse.h"
#include "graph/Digraph.h"
#include "graph/Dominators.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "structure/CycleEquivalence.h"

#include <algorithm>
#include <map>
#include <set>

using namespace depflow;

namespace {

bool hasPhis(const Function &F) {
  for (const auto &BB : F.blocks())
    for (const auto &I : BB->instructions())
      if (isa<PhiInst>(I.get()))
        return true;
  return false;
}

/// Checks that two class-id vectors induce the same partition; appends a
/// diagnostic per divergence (first few only — one is enough to act on).
void checkSamePartition(const std::vector<unsigned> &Fast,
                        const std::vector<unsigned> &Reference,
                        const std::string &What, Status &S) {
  if (Fast.size() != Reference.size()) {
    S.addError(What + ": partition sizes differ (" +
               std::to_string(Fast.size()) + " vs " +
               std::to_string(Reference.size()) + ")");
    return;
  }
  std::map<unsigned, unsigned> FastToRef, RefToFast;
  for (std::size_t I = 0; I != Fast.size(); ++I) {
    auto ItF = FastToRef.try_emplace(Fast[I], Reference[I]).first;
    if (ItF->second != Reference[I])
      S.addError(What + ": edge " + std::to_string(I) + " splits fast class " +
                 std::to_string(Fast[I]) +
                 " that the reference keeps together");
    auto ItR = RefToFast.try_emplace(Reference[I], Fast[I]).first;
    if (ItR->second != Fast[I])
      S.addError(What + ": edge " + std::to_string(I) +
                 " merges reference class " + std::to_string(Reference[I]) +
                 " that the fast algorithm splits");
    if (S.numErrors() >= 4)
      return; // Enough to debug from; avoid drowning the report.
  }
}

/// Definitions (Def instructions; nullptr = the entry definition) reaching
/// DFG node \p UseNode backwards through dependence edges. Defs kill.
std::set<const Instruction *> dfgDefsReaching(const DepFlowGraph &G,
                                              unsigned UseNode) {
  std::set<const Instruction *> Defs;
  std::vector<bool> Seen(G.numNodes(), false);
  std::vector<unsigned> Stack{UseNode};
  Seen[UseNode] = true;
  while (!Stack.empty()) {
    unsigned N = Stack.back();
    Stack.pop_back();
    const auto &Node = G.node(N);
    if (N != UseNode && Node.Kind == DepFlowGraph::NodeKind::Def) {
      Defs.insert(Node.Inst);
      continue;
    }
    if (Node.Kind == DepFlowGraph::NodeKind::Entry) {
      Defs.insert(nullptr);
      continue;
    }
    for (unsigned EId : G.inEdges(N)) {
      unsigned Src = G.edge(EId).Src;
      if (!Seen[Src]) {
        Seen[Src] = true;
        Stack.push_back(Src);
      }
    }
  }
  return Defs;
}

} // namespace

Status depflow::verifySSAForm(Function &F) {
  Status S = Status::fromMessages(verifyFunction(F));
  if (!S.ok())
    return S;

  // Single static definition per variable.
  std::vector<const Instruction *> DefOf(F.numVars(), nullptr);
  std::vector<int> DefBlock(F.numVars(), -1), DefIndex(F.numVars(), -1);
  for (const auto &BB : F.blocks()) {
    const auto &Insts = BB->instructions();
    for (unsigned Idx = 0; Idx != Insts.size(); ++Idx) {
      const auto *D = dyn_cast<DefInst>(Insts[Idx].get());
      if (!D)
        continue;
      if (DefOf[D->def()])
        S.addError("variable '" + F.varName(D->def()) +
                   "' has more than one static definition ('" +
                   printInstruction(F, *DefOf[D->def()]) + "' and '" +
                   printInstruction(F, *D) + "')");
      DefOf[D->def()] = D;
      DefBlock[D->def()] = int(BB->id());
      DefIndex[D->def()] = int(Idx);
    }
  }

  // Definitions dominate uses. Variables with no defining instruction are
  // entry definitions (parameters / implicit 0) and dominate everything.
  DomTree DT(cfgDigraph(F), F.entry()->id());
  auto DefReachesUse = [&](VarId V, const BasicBlock *UseBB,
                           int UseIdx) -> bool {
    if (!DefOf[V])
      return true;
    unsigned DB = unsigned(DefBlock[V]);
    if (DB == UseBB->id())
      return UseIdx < 0 /*end of block*/ || DefIndex[V] < UseIdx;
    return DT.strictlyDominates(DB, UseBB->id());
  };
  for (const auto &BB : F.blocks()) {
    const auto &Insts = BB->instructions();
    for (unsigned Idx = 0; Idx != Insts.size(); ++Idx) {
      const Instruction *I = Insts[Idx].get();
      if (const auto *Phi = dyn_cast<PhiInst>(I)) {
        for (unsigned K = 0, E = Phi->numIncoming(); K != E; ++K) {
          const Operand &Op = Phi->incomingValue(K);
          if (Op.isVar() &&
              !DefReachesUse(Op.var(), Phi->incomingBlock(K), -1))
            S.addError("phi use of '" + F.varName(Op.var()) + "' in block '" +
                       BB->label() + "' is not dominated by its definition " +
                       "at the end of '" + Phi->incomingBlock(K)->label() +
                       "'");
        }
        continue;
      }
      for (const Operand &Op : I->operands())
        if (Op.isVar() && !DefReachesUse(Op.var(), BB.get(), int(Idx)))
          S.addError("use of '" + F.varName(Op.var()) + "' in '" +
                     printInstruction(F, *I) + "' (block '" + BB->label() +
                     "') is not dominated by its definition");
    }
  }

  // Pruned placement: every phi must (transitively, through other phis)
  // feed a non-phi use. A phi web no non-phi instruction reads is dead and
  // would have been pruned by liveness / dead-edge removal.
  std::set<VarId> LiveVars;
  for (const auto &BB : F.blocks())
    for (const auto &I : BB->instructions()) {
      if (isa<PhiInst>(I.get()))
        continue;
      for (const Operand &Op : I->operands())
        if (Op.isVar())
          LiveVars.insert(Op.var());
    }
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (const auto &BB : F.blocks())
      for (const auto &I : BB->instructions()) {
        const auto *Phi = dyn_cast<PhiInst>(I.get());
        if (!Phi || !LiveVars.count(Phi->def()))
          continue;
        for (unsigned K = 0, E = Phi->numIncoming(); K != E; ++K) {
          const Operand &Op = Phi->incomingValue(K);
          if (Op.isVar() && LiveVars.insert(Op.var()).second)
            Changed = true;
        }
      }
  }
  for (const auto &BB : F.blocks())
    for (const auto &I : BB->instructions())
      if (const auto *Phi = dyn_cast<PhiInst>(I.get()))
        if (!LiveVars.count(Phi->def()))
          S.addError("phi for '" + F.varName(Phi->def()) + "' in block '" +
                     BB->label() +
                     "' never reaches a non-phi use (placement is not "
                     "pruned)");
  return S;
}

Status depflow::verifyDFGWellFormed(Function &F) {
  Status S = Status::fromMessages(verifyFunction(F));
  if (!S.ok())
    return S;
  if (hasPhis(F))
    return Status::error(
        "DFG well-formedness requires phi-free IR (run before SSA)");

  CFGEdges E(F);
  DepFlowGraph G = DepFlowGraph::build(F, E);

  // Structural conditions: edges stay within one variable's slice, switch
  // and merge nodes sit at switch/merge blocks, ports are in range.
  for (unsigned Id = 0; Id != G.numEdges(); ++Id) {
    const auto &Ed = G.edge(Id);
    if (Ed.Src >= G.numNodes() || Ed.Dst >= G.numNodes()) {
      S.addError("dependence edge " + std::to_string(Id) +
                 " references an out-of-range node");
      continue;
    }
    if (G.node(Ed.Src).Var != Ed.Var || G.node(Ed.Dst).Var != Ed.Var)
      S.addError("dependence edge " + std::to_string(Id) +
                 " crosses variables ('" + G.nodeLabel(F, Ed.Src) +
                 "' -> '" + G.nodeLabel(F, Ed.Dst) + "')");
    const auto &Src = G.node(Ed.Src);
    if (Src.Kind == DepFlowGraph::NodeKind::Switch &&
        Ed.SrcPort >= Src.Block->numSuccessors())
      S.addError("switch out-port " + std::to_string(Ed.SrcPort) +
                 " out of range at '" + G.nodeLabel(F, Ed.Src) + "'");
    const auto &Dst = G.node(Ed.Dst);
    if (Dst.Kind == DepFlowGraph::NodeKind::Merge &&
        Ed.DstPort >= Dst.Block->numPredecessors())
      S.addError("merge in-port " + std::to_string(Ed.DstPort) +
                 " out of range at '" + G.nodeLabel(F, Ed.Dst) + "'");
  }
  // Per-variable slices: the backward engine and the projection visit
  // only edgesOfVar(V), so each variable's edges must form one contiguous
  // id range, and that range must be exactly what a full scan finds.
  for (VarId V = 0; V <= G.controlVar(); ++V) {
    unsigned First = G.numEdges(), Last = 0, Count = 0;
    for (unsigned Id = 0; Id != G.numEdges(); ++Id)
      if (G.edge(Id).Var == V) {
        First = std::min(First, Id);
        Last = Id + 1;
        ++Count;
      }
    std::string Name = G.isControl(V) ? std::string("ctrl") : F.varName(V);
    if (Count && Last - First != Count)
      S.addError("dependence edges of '" + Name +
                 "' do not form one contiguous id range");
    DepFlowGraph::EdgeIdRange R = G.edgesOfVar(V);
    bool Matches = Count ? (R.size() == Count && *R.begin() == First)
                         : R.empty();
    if (!Matches)
      S.addError("edgesOfVar('" + Name + "') disagrees with a full scan (" +
                 std::to_string(R.size()) + " edges, scan found " +
                 std::to_string(Count) + ")");
  }
  for (unsigned N = 0; N != G.numNodes(); ++N) {
    const auto &Node = G.node(N);
    if (Node.Kind == DepFlowGraph::NodeKind::Switch && !Node.Block->isSwitch())
      S.addError("switch node '" + G.nodeLabel(F, N) +
                 "' at a block with a single successor");
    if (Node.Kind == DepFlowGraph::NodeKind::Merge && !Node.Block->isMerge())
      S.addError("merge node '" + G.nodeLabel(F, N) +
                 "' at a block with a single predecessor");
  }

  // Dead-edge-removal invariant: every node reaches some use.
  {
    std::vector<bool> Seen(G.numNodes(), false);
    std::vector<unsigned> Stack;
    for (unsigned N = 0; N != G.numNodes(); ++N)
      if (G.node(N).Kind == DepFlowGraph::NodeKind::Use) {
        Seen[N] = true;
        Stack.push_back(N);
      }
    while (!Stack.empty()) {
      unsigned N = Stack.back();
      Stack.pop_back();
      for (unsigned EId : G.inEdges(N)) {
        unsigned Src = G.edge(EId).Src;
        if (!Seen[Src]) {
          Seen[Src] = true;
          Stack.push_back(Src);
        }
      }
    }
    for (unsigned N = 0; N != G.numNodes(); ++N)
      if (!Seen[N])
        S.addError("DFG node '" + G.nodeLabel(F, N) +
                   "' reaches no use (dead-edge removal missed it)");
  }

  // Per-CFG-edge dependence map consistency (the Section 5.1 projection
  // hook): the recorded source node must exist and carry the variable.
  for (VarId V = 0; V <= G.controlVar(); ++V)
    for (unsigned Id = 0; Id != E.size(); ++Id) {
      auto [N, Port] = G.depAtEdge(Id, V);
      if (N < 0)
        continue;
      if (unsigned(N) >= G.numNodes())
        S.addError("dependence map for CFG edge " + std::to_string(Id) +
                   " references an out-of-range node");
      else if (G.node(unsigned(N)).Var != V)
        S.addError("dependence map for CFG edge " + std::to_string(Id) +
                   " points at '" + G.nodeLabel(F, unsigned(N)) +
                   "' which carries a different variable");
      else if (G.node(unsigned(N)).Kind == DepFlowGraph::NodeKind::Switch &&
               Port >= G.node(unsigned(N)).Block->numSuccessors())
        S.addError("dependence map for CFG edge " + std::to_string(Id) +
                   " uses an out-of-range switch port");
    }

  // Definition 6 / Theorem 1 semantics: for every use, the definitions
  // with a dependence path to it equal the classic reaching definitions.
  ReachingDefs RD(F);
  for (const ReachingDefs::Use &U : RD.uses()) {
    int UseNode = G.useNode(U.I, U.OpIdx);
    if (UseNode < 0) {
      S.addError("use of '" + F.varName(U.Var) + "' in '" +
                 printInstruction(F, *U.I) + "' has no DFG use node");
      continue;
    }
    std::set<const Instruction *> ViaDFG =
        dfgDefsReaching(G, unsigned(UseNode));
    auto Classic = RD.defsReaching(U.I, U.OpIdx);
    std::set<const Instruction *> ViaRD(Classic.begin(), Classic.end());
    if (ViaDFG != ViaRD) {
      std::string Msg = "reaching definitions diverge at use of '" +
                        F.varName(U.Var) + "' in '" +
                        printInstruction(F, *U.I) + "': DFG sees {";
      for (const Instruction *D : ViaDFG)
        Msg += (D ? printInstruction(F, *D) : std::string("entry")) + "; ";
      Msg += "} classic sees {";
      for (const Instruction *D : ViaRD)
        Msg += (D ? printInstruction(F, *D) : std::string("entry")) + "; ";
      Msg += "}";
      S.addError(Msg);
    }
    if (S.numErrors() >= 8)
      break;
  }
  return S;
}

Status depflow::crossCheckCycleEquivalence(Function &F) {
  Status S = Status::fromMessages(verifyFunction(F));
  if (!S.ok())
    return S;
  CFGEdges E(F);
  CycleEquivalence CE = cycleEquivalenceClasses(F, E);

  std::vector<UEdge> Directed;
  for (unsigned Id = 0; Id != E.size(); ++Id)
    Directed.push_back({E.edge(Id).From->id(), E.edge(Id).To->id()});
  Directed.push_back({F.exit()->id(), F.entry()->id()});
  unsigned BruteClasses = 0;
  std::vector<unsigned> Brute =
      bruteForceDirectedCycleEquivalence(F.numBlocks(), Directed,
                                         BruteClasses);
  std::vector<unsigned> Fast = CE.ClassOf;
  Fast.push_back(CE.VirtualClass);
  if (CE.NumClasses != BruteClasses)
    S.addError("cycle equivalence class counts differ: fast " +
               std::to_string(CE.NumClasses) + " vs reference " +
               std::to_string(BruteClasses));
  checkSamePartition(Fast, Brute, "cycle equivalence", S);
  return S;
}

Status depflow::crossCheckControlDependence(Function &F) {
  Status S = Status::fromMessages(verifyFunction(F));
  if (!S.ok())
    return S;
  CFGEdges E(F);
  FactoredCDG Factored = buildFactoredCDG(F, E);
  std::vector<std::vector<unsigned>> Baseline =
      edgeControlDependenceBaseline(F, E);
  for (unsigned Id = 0; Id != E.size(); ++Id) {
    if (Factored.edgeCD(Id) == Baseline[Id])
      continue;
    auto Render = [&](const std::vector<unsigned> &CD) {
      std::string Out = "{";
      for (unsigned B : CD)
        Out += E.edge(B).From->label() + "->" + E.edge(B).To->label() + "; ";
      return Out + "}";
    };
    S.addError("control dependence diverges on edge " +
               E.edge(Id).From->label() + "->" + E.edge(Id).To->label() +
               ": factored " + Render(Factored.edgeCD(Id)) + " vs baseline " +
               Render(Baseline[Id]));
    if (S.numErrors() >= 4)
      break;
  }
  return S;
}

Status depflow::verifyPassInvariants(Function &F, const VerifyOptions &Opts) {
  Status S = Status::fromMessages(verifyFunction(F));
  if (!S.ok()) {
    S.addError("offending program:\n" + printFunction(F));
    return S;
  }
  const bool Phis = hasPhis(F);
  if (Opts.ExpectSSA)
    S.append(verifySSAForm(F));
  if (Opts.CheckDFG && !Phis)
    S.append(verifyDFGWellFormed(F));
  if (Opts.CrossCheckStructure && F.numEdges() <= Opts.MaxCrossCheckEdges) {
    S.append(crossCheckCycleEquivalence(F));
    S.append(crossCheckControlDependence(F));
  }
  if (!S.ok())
    S.addError("offending program:\n" + printFunction(F));
  return S;
}
