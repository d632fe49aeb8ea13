//===- sdg/SystemDependenceGraph.cpp - Interprocedural SDG ----------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "sdg/SystemDependenceGraph.h"

#include "cdg/ControlDependence.h"
#include "core/DepFlowGraph.h"
#include "ir/CFGEdges.h"
#include "obs/Sched.h"
#include "support/FaultInjection.h"
#include "support/Statistic.h"

#include <algorithm>
#include <atomic>
#include <cassert>

using namespace depflow;

DEPFLOW_STATISTIC(NumSDGNodes, "sdg", "SDG nodes created");
DEPFLOW_STATISTIC(NumSDGEdges, "sdg", "SDG edges created (all kinds)");
DEPFLOW_STATISTIC(NumSDGSummaryEdges, "sdg",
                  "Summary edges (actual-in -> actual-out)");
DEPFLOW_STATISTIC(NumSDGCallSites, "sdg", "Call sites stitched");
DEPFLOW_STATISTIC(NumSDGSCCs, "sdg", "Call-graph SCCs condensed");
DEPFLOW_STATISTIC(NumSDGLevels, "sdg", "Condensation levels scheduled");
DEPFLOW_STATISTIC(NumSDGSummaryRounds, "sdg",
                  "Summary fixpoint rounds over SCC members");
DEPFLOW_MAX_STATISTIC(MaxSDGSCCSize, "sdg", "Largest call-graph SCC");
DEPFLOW_MAX_STATISTIC(MaxSDGLevelWidth, "sdg",
                      "Most SCCs on one condensation level");
DEPFLOW_HIST_STATISTIC(HistSDGSummaryPorts, "sdg",
                       "Formal-in ports per formal-out summary set");

const char *SystemDependenceGraph::nodeKindName(NodeKind K) {
  switch (K) {
  case NodeKind::Entry:
    return "entry";
  case NodeKind::Instr:
    return "instr";
  case NodeKind::FormalIn:
    return "formal-in";
  case NodeKind::FormalIOIn:
    return "formal-io-in";
  case NodeKind::FormalOut:
    return "formal-out";
  case NodeKind::FormalIOOut:
    return "formal-io-out";
  case NodeKind::ActualIn:
    return "actual-in";
  case NodeKind::ActualIOIn:
    return "actual-io-in";
  case NodeKind::ActualOut:
    return "actual-out";
  case NodeKind::ActualIOOut:
    return "actual-io-out";
  }
  return "unknown";
}

const char *SystemDependenceGraph::edgeKindName(EdgeKind K) {
  switch (K) {
  case EdgeKind::Control:
    return "control";
  case EdgeKind::Data:
    return "data";
  case EdgeKind::Call:
    return "call";
  case EdgeKind::ParamIn:
    return "param-in";
  case EdgeKind::ParamOut:
    return "param-out";
  case EdgeKind::Summary:
    return "summary";
  }
  return "unknown";
}

int SystemDependenceGraph::instrNode(unsigned F, const Instruction *I) const {
  const auto &Map = InstrMap[F];
  auto It = std::lower_bound(
      Map.begin(), Map.end(), I,
      [](const std::pair<const Instruction *, unsigned> &P,
         const Instruction *Key) { return P.first < Key; });
  if (It == Map.end() || It->first != I)
    return -1;
  return int(It->second);
}

namespace {

/// Everything one per-function task produces: the function's PDG nodes
/// (local ids, deterministic creation order) and its intraprocedural
/// control/data edges. Committed into a function-indexed slot, so global
/// numbering is independent of worker scheduling.
struct LocalPDG {
  using Node = SystemDependenceGraph::Node;
  using NodeKind = SystemDependenceGraph::NodeKind;

  std::vector<Node> Nodes;
  /// (src, dst) in local ids.
  std::vector<std::pair<unsigned, unsigned>> ControlEdges, DataEdges;

  unsigned Entry = 0;
  std::vector<int> FormalIns;
  int FormalOut = -1, FormalIOIn = -1, FormalIOOut = -1;

  struct SiteNodes {
    std::vector<int> Ins;
    int IOIn = -1, Out = -1, IOOut = -1;
  };
  /// Indexed like CallGraph::sitesOf(F) (canonical site order).
  std::vector<SiteNodes> Sites;

  /// Local id of every instruction's Instr node, in block/instr order.
  std::vector<std::pair<const Instruction *, unsigned>> Instrs;
};

/// An io point: an instruction that both uses and defines the io
/// pseudo-state (a read, or a call whose callee may read). Use/Def are
/// local node ids (for calls they differ: actual-io-in uses, actual-io-out
/// defines).
struct IOPoint {
  unsigned Block;
  unsigned UseNode;
  unsigned DefNode;
};

class FunctionPDGBuilder {
  Function &F;
  unsigned FI;
  const CallGraph &CG;
  const std::vector<char> &MayRead;
  LocalPDG &L;

  unsigned addNode(LocalPDG::NodeKind K, const Instruction *I = nullptr,
                   unsigned Aux = 0, unsigned Aux2 = 0) {
    L.Nodes.push_back({K, FI, I, Aux, Aux2});
    return unsigned(L.Nodes.size() - 1);
  }

public:
  FunctionPDGBuilder(Function &F, unsigned FI, const CallGraph &CG,
                     const std::vector<char> &MayRead, LocalPDG &L)
      : F(F), FI(FI), CG(CG), MayRead(MayRead), L(L) {}

  void run() {
    using NK = LocalPDG::NodeKind;
    const std::vector<unsigned> &SiteIds = CG.sitesOf(FI);

    // --- Nodes, in a fixed order -----------------------------------------
    L.Entry = addNode(NK::Entry);
    for (unsigned P = 0; P != F.params().size(); ++P)
      L.FormalIns.push_back(int(addNode(NK::FormalIn, nullptr, P)));
    if (MayRead[FI]) {
      L.FormalIOIn = int(addNode(NK::FormalIOIn));
      L.FormalIOOut = int(addNode(NK::FormalIOOut));
    }
    const Instruction *Ret = F.exit() ? F.exit()->terminator() : nullptr;
    if (Ret && Ret->numOperands() > 0)
      L.FormalOut = int(addNode(NK::FormalOut, Ret));

    for (const auto &BB : F.blocks())
      for (const auto &I : BB->instructions())
        L.Instrs.push_back({I.get(), addNode(NK::Instr, I.get())});
    std::sort(L.Instrs.begin(), L.Instrs.end());

    L.Sites.resize(SiteIds.size());
    for (unsigned SI = 0; SI != SiteIds.size(); ++SI) {
      const CallGraph::Site &S = CG.sites()[SiteIds[SI]];
      LocalPDG::SiteNodes &SN = L.Sites[SI];
      for (unsigned A = 0; A != S.Call->numArgs(); ++A)
        SN.Ins.push_back(
            int(addNode(NK::ActualIn, S.Call, SiteIds[SI], A)));
      if (MayRead[S.Callee]) {
        SN.IOIn = int(addNode(NK::ActualIOIn, S.Call, SiteIds[SI]));
        SN.IOOut = int(addNode(NK::ActualIOOut, S.Call, SiteIds[SI]));
      }
      SN.Out = int(addNode(NK::ActualOut, S.Call, SiteIds[SI]));
    }

    // --- Structural analyses ---------------------------------------------
    CFGEdges E(F);
    DepFlowGraph DFG = DepFlowGraph::build(F, E);
    std::vector<char> SelfDependent, EntryDependent;
    std::vector<std::vector<unsigned>> CD =
        nodeControlDependence(F, E, &SelfDependent, &EntryDependent);

    buildControlEdges(E, CD, SelfDependent, EntryDependent);
    buildDataEdges(DFG);
    if (MayRead[FI])
      buildIOEdges();
  }

private:
  unsigned instrLocal(const Instruction *I) const {
    auto It = std::lower_bound(
        L.Instrs.begin(), L.Instrs.end(), I,
        [](const std::pair<const Instruction *, unsigned> &P,
           const Instruction *Key) { return P.first < Key; });
    assert(It != L.Instrs.end() && It->first == I && "instruction not mapped");
    return It->second;
  }

  /// Local site index of a call instruction (sites are few per function).
  int siteOf(const Instruction *I) const {
    const std::vector<unsigned> &SiteIds = CG.sitesOf(FI);
    for (unsigned SI = 0; SI != SiteIds.size(); ++SI)
      if (CG.sites()[SiteIds[SI]].Call == I)
        return int(SI);
    return -1;
  }

  void buildControlEdges(const CFGEdges &E,
                         const std::vector<std::vector<unsigned>> &CD,
                         const std::vector<char> &SelfDependent,
                         const std::vector<char> &EntryDependent) {
    // Formals hang off the entry, actuals off their call instruction.
    for (int FIn : L.FormalIns)
      L.ControlEdges.push_back({L.Entry, unsigned(FIn)});
    if (L.FormalIOIn >= 0)
      L.ControlEdges.push_back({L.Entry, unsigned(L.FormalIOIn)});
    if (L.FormalIOOut >= 0)
      L.ControlEdges.push_back({L.Entry, unsigned(L.FormalIOOut)});
    if (L.FormalOut >= 0)
      L.ControlEdges.push_back({L.Entry, unsigned(L.FormalOut)});
    const std::vector<unsigned> &SiteIds = CG.sitesOf(FI);
    for (unsigned SI = 0; SI != SiteIds.size(); ++SI) {
      unsigned CallNode = instrLocal(CG.sites()[SiteIds[SI]].Call);
      const LocalPDG::SiteNodes &SN = L.Sites[SI];
      for (int In : SN.Ins)
        L.ControlEdges.push_back({CallNode, unsigned(In)});
      if (SN.IOIn >= 0)
        L.ControlEdges.push_back({CallNode, unsigned(SN.IOIn)});
      if (SN.IOOut >= 0)
        L.ControlEdges.push_back({CallNode, unsigned(SN.IOOut)});
      L.ControlEdges.push_back({CallNode, unsigned(SN.Out)});
    }

    // Instruction-level control dependence from the block-level FOW sets:
    // an instruction depends on the condbr at the source of every branch
    // edge its block depends on; blocks with no control dependence hang
    // off the entry. A block that postdominates the entry block runs on
    // every call that returns, so it also hangs off the entry, besides its
    // branch sources (FOW's augmenting Entry→Exit edge). Without that, a
    // loop whose blocks control each other would form a control cycle that
    // never reaches the entry, and a slice would never cross to the call
    // sites. Whether a block that postdominates one of its own successors
    // runs again is decided by its condbr, so every other instruction of
    // the block also depends on that condbr — the loop self-dependence the
    // block-level sets leave out (Definition 2).
    for (const auto &BB : F.blocks()) {
      std::vector<unsigned> Srcs;
      for (unsigned BranchEdge : CD[BB->id()]) {
        const Instruction *Br = E.edge(BranchEdge).From->terminator();
        assert(Br && isa<CondBrInst>(Br) && "branch edge without a condbr");
        Srcs.push_back(instrLocal(Br));
      }
      std::sort(Srcs.begin(), Srcs.end());
      Srcs.erase(std::unique(Srcs.begin(), Srcs.end()), Srcs.end());
      const Instruction *Br = BB->terminator();
      const int SelfSrc = SelfDependent[BB->id()] ? int(instrLocal(Br)) : -1;
      const bool OnEntry = Srcs.empty() || EntryDependent[BB->id()];
      for (const auto &I : BB->instructions()) {
        unsigned Dst = instrLocal(I.get());
        if (OnEntry)
          L.ControlEdges.push_back({L.Entry, Dst});
        for (unsigned Src : Srcs)
          L.ControlEdges.push_back({Src, Dst});
        if (SelfSrc >= 0 && I.get() != Br)
          L.ControlEdges.push_back({unsigned(SelfSrc), Dst});
      }
    }
  }

  /// All reaching definition sources of use (I, OpIdx), walked backward
  /// through the DFG's switch/merge routing until a def or the entry.
  void reachingSources(const DepFlowGraph &DFG, const Instruction *I,
                       unsigned OpIdx, VarId V,
                       std::vector<unsigned> &SrcsOut,
                       std::vector<char> &Visited) {
    int Use = DFG.useNode(I, OpIdx);
    if (Use < 0)
      return;
    std::fill(Visited.begin(), Visited.end(), 0);
    std::vector<unsigned> Work{unsigned(Use)};
    Visited[unsigned(Use)] = 1;
    while (!Work.empty()) {
      unsigned N = Work.back();
      Work.pop_back();
      for (unsigned EId : DFG.inEdges(N)) {
        const DepFlowGraph::Edge &DE = DFG.edge(EId);
        if (DE.Var != V)
          continue;
        if (Visited[DE.Src])
          continue;
        Visited[DE.Src] = 1;
        const DepFlowGraph::Node DN = DFG.node(DE.Src);
        switch (DN.Kind) {
        case DepFlowGraph::NodeKind::Def: {
          // A def by a call materializes at the site's actual-out.
          if (isa<CallInst>(DN.Inst)) {
            int SI = siteOf(DN.Inst);
            assert(SI >= 0 && "call def without a site");
            SrcsOut.push_back(unsigned(L.Sites[SI].Out));
          } else {
            SrcsOut.push_back(instrLocal(DN.Inst));
          }
          break;
        }
        case DepFlowGraph::NodeKind::Entry:
          // Initial values: parameters flow from their formal-in; plain
          // variables are implicitly zero (no dependence).
          for (unsigned P = 0; P != F.params().size(); ++P)
            if (F.params()[P] == V)
              SrcsOut.push_back(unsigned(L.FormalIns[P]));
          break;
        case DepFlowGraph::NodeKind::Use:
          break; // Uses have no in-edges; unreachable on a backward walk.
        case DepFlowGraph::NodeKind::Switch:
        case DepFlowGraph::NodeKind::Merge:
          Work.push_back(DE.Src);
          break;
        }
      }
    }
    std::sort(SrcsOut.begin(), SrcsOut.end());
    SrcsOut.erase(std::unique(SrcsOut.begin(), SrcsOut.end()), SrcsOut.end());
  }

  void buildDataEdges(const DepFlowGraph &DFG) {
    std::vector<char> Visited(DFG.numNodes(), 0);
    std::vector<unsigned> Srcs;
    for (const auto &BB : F.blocks()) {
      for (const auto &IPtr : BB->instructions()) {
        const Instruction *I = IPtr.get();
        int SI = isa<CallInst>(I) ? siteOf(I) : -1;
        for (unsigned OpIdx = 0; OpIdx != I->numOperands(); ++OpIdx) {
          const Operand &Op = I->operand(OpIdx);
          if (!Op.isVar())
            continue;
          Srcs.clear();
          reachingSources(DFG, I, OpIdx, Op.var(), Srcs, Visited);
          // A call's argument value feeds the site's actual-in node; every
          // other operand feeds the instruction itself.
          unsigned Dst = SI >= 0 ? unsigned(L.Sites[SI].Ins[OpIdx])
                                 : instrLocal(I);
          for (unsigned Src : Srcs)
            L.DataEdges.push_back({Src, Dst});
        }
      }
    }
    // The function's return value: reaching defs of the first ret operand
    // feed formal-out (the value a call site receives).
    if (L.FormalOut >= 0) {
      const Instruction *Ret = F.exit()->terminator();
      const Operand &Op = Ret->operand(0);
      if (Op.isVar()) {
        Srcs.clear();
        reachingSources(DFG, Ret, 0, Op.var(), Srcs, Visited);
        for (unsigned Src : Srcs)
          L.DataEdges.push_back({Src, unsigned(L.FormalOut)});
      }
    }
  }

  /// io chains: reads and calls-to-may-read-callees consume the shared
  /// input stream in execution order, so each such point uses the io state
  /// of every point that can immediately precede it (a reaching-defs pass
  /// with exactly one pseudo-variable).
  void buildIOEdges() {
    std::vector<IOPoint> Points;
    std::vector<std::vector<unsigned>> PointsOf(F.numBlocks());
    for (const auto &BB : F.blocks())
      for (const auto &IPtr : BB->instructions()) {
        const Instruction *I = IPtr.get();
        if (isa<ReadInst>(I)) {
          unsigned N = instrLocal(I);
          PointsOf[BB->id()].push_back(unsigned(Points.size()));
          Points.push_back({BB->id(), N, N});
        } else if (isa<CallInst>(I)) {
          int SI = siteOf(I);
          assert(SI >= 0);
          const LocalPDG::SiteNodes &SN = L.Sites[SI];
          if (SN.IOIn < 0)
            continue; // Callee never reads: io passes through untouched.
          PointsOf[BB->id()].push_back(unsigned(Points.size()));
          Points.push_back({BB->id(), unsigned(SN.IOIn), unsigned(SN.IOOut)});
        }
      }

    // Def index space: 0 = formal-io-in (the stream position at entry),
    // 1 + p = io point p.
    const unsigned NumDefs = 1 + unsigned(Points.size());
    auto DefNode = [&](unsigned D) {
      return D == 0 ? unsigned(L.FormalIOIn) : Points[D - 1].DefNode;
    };

    const unsigned NB = F.numBlocks();
    std::vector<std::vector<char>> BlockIn(NB, std::vector<char>(NumDefs, 0));
    BlockIn[F.entry()->id()][0] = 1;
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (const auto &BB : F.blocks()) {
        unsigned B = BB->id();
        // OUT[b] = last point in b, else IN[b]; push into successors.
        for (BasicBlock *Succ : BB->successors()) {
          std::vector<char> &SIn = BlockIn[Succ->id()];
          if (!PointsOf[B].empty()) {
            unsigned D = 1 + PointsOf[B].back();
            if (!SIn[D]) {
              SIn[D] = 1;
              Changed = true;
            }
          } else {
            const std::vector<char> &BIn = BlockIn[B];
            for (unsigned D = 0; D != NumDefs; ++D)
              if (BIn[D] && !SIn[D]) {
                SIn[D] = 1;
                Changed = true;
              }
          }
        }
      }
    }

    auto Emit = [&](const std::vector<char> &Reaching, unsigned UseNode) {
      for (unsigned D = 0; D != NumDefs; ++D)
        if (Reaching[D])
          L.DataEdges.push_back({DefNode(D), UseNode});
    };
    for (const auto &BB : F.blocks()) {
      unsigned B = BB->id();
      std::vector<char> Cur = BlockIn[B];
      for (unsigned P : PointsOf[B]) {
        Emit(Cur, Points[P].UseNode);
        std::fill(Cur.begin(), Cur.end(), 0);
        Cur[1 + P] = 1;
      }
      if (BB.get() == F.exit())
        Emit(Cur, unsigned(L.FormalIOOut));
    }
  }
};

} // namespace

SystemDependenceGraph
SystemDependenceGraph::build(Module &M, const SDGBuildOptions &Opts) {
  // Fault point `analysis-fail:sdg`: fires here, before any worker
  // thread exists, so the throw always unwinds on the caller's thread.
  faultAnalysisCheckpoint("sdg");
  SystemDependenceGraph G;
  G.M = &M;
  G.CG = CallGraph::build(M);
  const CallGraph &CG = G.CG;
  const unsigned NF = M.numFunctions();
  const unsigned NS = unsigned(CG.sites().size());

  // May-read: a function reads if it contains a read() or calls a reader.
  // Bottom-up over the condensation; within an SCC the property is shared
  // (mutual recursion), so iterate members until stable.
  G.MayRead.assign(NF, 0);
  for (unsigned FI = 0; FI != NF; ++FI)
    for (const auto &BB : M.function(FI)->blocks())
      for (const auto &I : BB->instructions())
        if (isa<ReadInst>(I.get()))
          G.MayRead[FI] = 1;
  for (unsigned SCC = 0; SCC != CG.numSCCs(); ++SCC) {
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (unsigned FI : CG.members(SCC))
        if (!G.MayRead[FI])
          for (unsigned Callee : CG.calleesOf(FI))
            if (G.MayRead[Callee]) {
              G.MayRead[FI] = 1;
              Changed = true;
              break;
            }
    }
  }

  // The SDG build is level-structured by construction: phase A is pool
  // level 0 (every function's PDG task is ready at once), condensation
  // level L is pool level 1+L. The run spans phases A-D, the serial
  // numbering/stitch and summary-edge phases included.
  unsigned MaxWidth = NF;
  for (unsigned Level = 0; Level != CG.numLevels(); ++Level)
    MaxWidth = std::max(MaxWidth, unsigned(CG.level(Level).size()));
  obs::LevelPool Pool("sdg-build", Opts.Jobs, MaxWidth);

  // --- Phase A: per-function PDGs, one pool task per function -----------
  std::vector<LocalPDG> Locals(NF);
  Pool.runLevel(
      NF, [&](unsigned FI) { return "pdg:" + M.function(FI)->name(); },
      [&](unsigned FI) {
        FunctionPDGBuilder B(*M.function(FI), FI, CG, G.MayRead, Locals[FI]);
        B.run();
      });

  // --- Phase B: global numbering + interprocedural stitching (serial) ---
  std::vector<unsigned> Base(NF + 1, 0);
  for (unsigned FI = 0; FI != NF; ++FI)
    Base[FI + 1] = Base[FI] + unsigned(Locals[FI].Nodes.size());
  G.Nodes.reserve(Base[NF]);
  for (unsigned FI = 0; FI != NF; ++FI)
    G.Nodes.insert(G.Nodes.end(), Locals[FI].Nodes.begin(),
                   Locals[FI].Nodes.end());

  G.EntryOf.resize(NF);
  G.FormalIns.resize(NF);
  G.FormalOutOf.assign(NF, -1);
  G.FormalIOInOf.assign(NF, -1);
  G.FormalIOOutOf.assign(NF, -1);
  G.InstrMap.resize(NF);
  G.ActualIns.resize(NS);
  G.ActualOutOf.assign(NS, -1);
  G.ActualIOInOf.assign(NS, -1);
  G.ActualIOOutOf.assign(NS, -1);

  auto Lift = [&](unsigned FI, int Local) {
    return Local < 0 ? -1 : int(Base[FI] + unsigned(Local));
  };
  for (unsigned FI = 0; FI != NF; ++FI) {
    const LocalPDG &L = Locals[FI];
    G.EntryOf[FI] = Base[FI] + L.Entry;
    for (int FIn : L.FormalIns)
      G.FormalIns[FI].push_back(Lift(FI, FIn));
    G.FormalOutOf[FI] = Lift(FI, L.FormalOut);
    G.FormalIOInOf[FI] = Lift(FI, L.FormalIOIn);
    G.FormalIOOutOf[FI] = Lift(FI, L.FormalIOOut);
    for (const auto &[I, LocalId] : L.Instrs)
      G.InstrMap[FI].push_back({I, Base[FI] + LocalId});
    const std::vector<unsigned> &SiteIds = CG.sitesOf(FI);
    for (unsigned SI = 0; SI != SiteIds.size(); ++SI) {
      const LocalPDG::SiteNodes &SN = L.Sites[SI];
      unsigned Site = SiteIds[SI];
      for (int In : SN.Ins)
        G.ActualIns[Site].push_back(Lift(FI, In));
      G.ActualOutOf[Site] = Lift(FI, SN.Out);
      G.ActualIOInOf[Site] = Lift(FI, SN.IOIn);
      G.ActualIOOutOf[Site] = Lift(FI, SN.IOOut);
    }
  }

  for (unsigned FI = 0; FI != NF; ++FI) {
    for (auto [Src, Dst] : Locals[FI].ControlEdges)
      G.Edges.push_back({Base[FI] + Src, Base[FI] + Dst, EdgeKind::Control});
    for (auto [Src, Dst] : Locals[FI].DataEdges)
      G.Edges.push_back({Base[FI] + Src, Base[FI] + Dst, EdgeKind::Data});
  }

  for (unsigned Site = 0; Site != NS; ++Site) {
    const CallGraph::Site &S = CG.sites()[Site];
    unsigned Callee = S.Callee;
    int CallNode = G.instrNode(S.Caller, S.Call);
    assert(CallNode >= 0);
    G.Edges.push_back(
        {unsigned(CallNode), G.EntryOf[Callee], EdgeKind::Call});
    assert(G.ActualIns[Site].size() == G.FormalIns[Callee].size() &&
           "arity verified before SDG construction");
    for (unsigned A = 0; A != G.ActualIns[Site].size(); ++A)
      G.Edges.push_back({unsigned(G.ActualIns[Site][A]),
                         unsigned(G.FormalIns[Callee][A]), EdgeKind::ParamIn});
    if (G.ActualIOInOf[Site] >= 0) {
      G.Edges.push_back({unsigned(G.ActualIOInOf[Site]),
                         unsigned(G.FormalIOInOf[Callee]), EdgeKind::ParamIn});
      G.Edges.push_back({unsigned(G.FormalIOOutOf[Callee]),
                         unsigned(G.ActualIOOutOf[Site]), EdgeKind::ParamOut});
    }
    if (G.FormalOutOf[Callee] >= 0)
      G.Edges.push_back({unsigned(G.FormalOutOf[Callee]),
                         unsigned(G.ActualOutOf[Site]), EdgeKind::ParamOut});
  }

  auto RebuildAdjacency = [&](unsigned FromEdge) {
    G.Out.resize(G.Nodes.size());
    G.In.resize(G.Nodes.size());
    for (unsigned E = FromEdge; E != G.Edges.size(); ++E) {
      G.Out[G.Edges[E].Src].push_back(E);
      G.In[G.Edges[E].Dst].push_back(E);
    }
  };
  RebuildAdjacency(0);

  // --- Phase C: summaries, bottom-up over condensation levels -----------
  // In-port space per function: parameters then io-in. Summary sets are
  // per out-port (formal-out, formal-io-out) bitsets over in-ports.
  struct FnSummary {
    std::vector<char> RetDeps; // formal-out <- in-ports
    std::vector<char> IODeps;  // formal-io-out <- in-ports
  };
  std::vector<FnSummary> Summaries(NF);
  for (unsigned FI = 0; FI != NF; ++FI) {
    unsigned Ports = unsigned(G.FormalIns[FI].size()) +
                     (G.FormalIOInOf[FI] >= 0 ? 1 : 0);
    Summaries[FI].RetDeps.assign(Ports, 0);
    Summaries[FI].IODeps.assign(Ports, 0);
  }
  auto InPortIndex = [&](unsigned FI, unsigned NodeId) -> int {
    const Node &N = G.Nodes[NodeId];
    if (N.Kind == NodeKind::FormalIn)
      return int(N.Aux);
    if (N.Kind == NodeKind::FormalIOIn)
      return int(G.FormalIns[FI].size());
    return -1;
  };

  std::atomic<std::uint64_t> TotalRounds{0};

  // Backward reachability from one out-port node, staying inside the
  // function: interprocedural edges are skipped, interior call sites are
  // crossed through the callee's current summary sets.
  auto ComputePort = [&](unsigned FI, unsigned PortNode,
                         std::vector<char> &DepsOut,
                         std::vector<char> &Visited) {
    std::fill(DepsOut.begin(), DepsOut.end(), 0);
    std::fill(Visited.begin(), Visited.end(), 0);
    std::vector<unsigned> Work{PortNode};
    Visited[PortNode - Base[FI]] = 1;
    while (!Work.empty()) {
      unsigned N = Work.back();
      Work.pop_back();
      int Port = InPortIndex(FI, N);
      if (Port >= 0)
        DepsOut[unsigned(Port)] = 1;
      auto Push = [&](unsigned Id) {
        unsigned LocalId = Id - Base[FI];
        if (!Visited[LocalId]) {
          Visited[LocalId] = 1;
          Work.push_back(Id);
        }
      };
      for (unsigned EId : G.In[N]) {
        const Edge &E = G.Edges[EId];
        if (E.Kind == EdgeKind::Call || E.Kind == EdgeKind::ParamIn ||
            E.Kind == EdgeKind::ParamOut || E.Kind == EdgeKind::Summary)
          continue;
        Push(E.Src);
      }
      const Node &Nd = G.Nodes[N];
      if (Nd.Kind == NodeKind::ActualOut || Nd.Kind == NodeKind::ActualIOOut) {
        unsigned Site = Nd.Aux;
        unsigned Callee = CG.sites()[Site].Callee;
        const std::vector<char> &Deps =
            Nd.Kind == NodeKind::ActualOut ? Summaries[Callee].RetDeps
                                           : Summaries[Callee].IODeps;
        unsigned NumParams = unsigned(G.FormalIns[Callee].size());
        for (unsigned P = 0; P != Deps.size(); ++P) {
          if (!Deps[P])
            continue;
          int ActualNode = P < NumParams ? G.ActualIns[Site][P]
                                         : G.ActualIOInOf[Site];
          if (ActualNode >= 0)
            Push(unsigned(ActualNode));
        }
      }
    }
  };

  auto ProcessSCC = [&](unsigned SCC) {
    const std::vector<unsigned> &Members = CG.members(SCC);
    std::uint64_t Rounds = 0;
    bool Changed = true;
    while (Changed) {
      Changed = false;
      ++Rounds;
      for (unsigned FI : Members) {
        std::vector<char> Visited(Locals[FI].Nodes.size(), 0);
        FnSummary &S = Summaries[FI];
        std::vector<char> Fresh(S.RetDeps.size(), 0);
        if (G.FormalOutOf[FI] >= 0) {
          ComputePort(FI, unsigned(G.FormalOutOf[FI]), Fresh, Visited);
          if (Fresh != S.RetDeps) {
            S.RetDeps = Fresh;
            Changed = true;
          }
        }
        if (G.FormalIOOutOf[FI] >= 0) {
          ComputePort(FI, unsigned(G.FormalIOOutOf[FI]), Fresh, Visited);
          if (Fresh != S.IODeps) {
            S.IODeps = Fresh;
            Changed = true;
          }
        }
      }
      // Non-recursive SCCs converge in one pass (their callees' summaries
      // are complete before the level starts).
      if (!CG.isRecursive(SCC))
        break;
    }
    TotalRounds.fetch_add(Rounds, std::memory_order_relaxed);
  };

  for (unsigned Level = 0; Level != CG.numLevels(); ++Level) {
    const std::vector<unsigned> &SCCs = CG.level(Level);
    MaxSDGLevelWidth.update(SCCs.size());
    Pool.runLevel(
        unsigned(SCCs.size()),
        [&](unsigned I) { return "scc:" + std::to_string(SCCs[I]); },
        [&](unsigned I) { ProcessSCC(SCCs[I]); });
  }

  // --- Phase D: materialize summary edges (serial, site order) ----------
  unsigned FirstSummaryEdge = unsigned(G.Edges.size());
  for (unsigned Site = 0; Site != NS; ++Site) {
    unsigned Callee = CG.sites()[Site].Callee;
    const FnSummary &S = Summaries[Callee];
    unsigned NumParams = unsigned(G.FormalIns[Callee].size());
    auto EmitSummary = [&](const std::vector<char> &Deps, int OutNode) {
      if (OutNode < 0)
        return;
      for (unsigned P = 0; P != Deps.size(); ++P) {
        if (!Deps[P])
          continue;
        int InNode = P < NumParams ? G.ActualIns[Site][P]
                                   : G.ActualIOInOf[Site];
        if (InNode >= 0)
          G.Edges.push_back(
              {unsigned(InNode), unsigned(OutNode), EdgeKind::Summary});
      }
    };
    if (G.FormalOutOf[Callee] >= 0)
      EmitSummary(S.RetDeps, G.ActualOutOf[Site]);
    if (G.FormalIOOutOf[Callee] >= 0)
      EmitSummary(S.IODeps, G.ActualIOOutOf[Site]);
  }
  RebuildAdjacency(FirstSummaryEdge);

  // --- Stats + counters (all serial or commuting: -j independent) -------
  G.BuildStats.Nodes = unsigned(G.Nodes.size());
  G.BuildStats.Edges = unsigned(G.Edges.size());
  G.BuildStats.SummaryEdges = unsigned(G.Edges.size()) - FirstSummaryEdge;
  G.BuildStats.CallSites = NS;
  G.BuildStats.SCCs = CG.numSCCs();
  G.BuildStats.Levels = CG.numLevels();
  G.BuildStats.SummaryRounds =
      unsigned(TotalRounds.load(std::memory_order_relaxed));

  NumSDGNodes += G.BuildStats.Nodes;
  NumSDGEdges += G.BuildStats.Edges;
  NumSDGSummaryEdges += G.BuildStats.SummaryEdges;
  NumSDGCallSites += NS;
  NumSDGSCCs += CG.numSCCs();
  NumSDGLevels += CG.numLevels();
  NumSDGSummaryRounds += G.BuildStats.SummaryRounds;
  for (unsigned SCC = 0; SCC != CG.numSCCs(); ++SCC)
    MaxSDGSCCSize.update(CG.members(SCC).size());
  for (unsigned FI = 0; FI != NF; ++FI) {
    if (G.FormalOutOf[FI] >= 0)
      HistSDGSummaryPorts.sample(std::uint64_t(
          std::count(Summaries[FI].RetDeps.begin(),
                     Summaries[FI].RetDeps.end(), char(1))));
    if (G.FormalIOOutOf[FI] >= 0)
      HistSDGSummaryPorts.sample(std::uint64_t(
          std::count(Summaries[FI].IODeps.begin(), Summaries[FI].IODeps.end(),
                     char(1))));
  }

  Pool.finish();
  return G;
}

std::string SystemDependenceGraph::nodeLabel(unsigned Id) const {
  const Node &N = Nodes[Id];
  const Function *F = M->function(N.Func);
  std::string S = F->name() + ":" + nodeKindName(N.Kind);
  switch (N.Kind) {
  case NodeKind::Instr:
    S += " line " + std::to_string(N.I->line());
    break;
  case NodeKind::FormalIn:
    S += " " + F->varName(F->params()[N.Aux]);
    break;
  case NodeKind::ActualIn:
    S += " arg" + std::to_string(N.Aux2) + " line " +
         std::to_string(N.I->line());
    break;
  case NodeKind::ActualOut:
  case NodeKind::ActualIOIn:
  case NodeKind::ActualIOOut:
    S += " line " + std::to_string(N.I->line());
    break;
  default:
    break;
  }
  return S;
}

std::string SystemDependenceGraph::toDot() const {
  std::string S = "digraph sdg {\n  node [shape=box, fontname=\"monospace\"];\n";
  for (unsigned FI = 0; FI != M->numFunctions(); ++FI) {
    S += "  subgraph cluster_f" + std::to_string(FI) + " {\n    label=\"" +
         M->function(FI)->name() + "\";\n";
    for (unsigned N = 0; N != Nodes.size(); ++N)
      if (Nodes[N].Func == FI)
        S += "    n" + std::to_string(N) + " [label=\"" + nodeLabel(N) +
             "\"];\n";
    S += "  }\n";
  }
  for (const Edge &E : Edges) {
    const char *Style = "";
    switch (E.Kind) {
    case EdgeKind::Control:
      Style = " [style=dashed]";
      break;
    case EdgeKind::Summary:
      Style = " [style=dotted, color=blue]";
      break;
    case EdgeKind::Call:
    case EdgeKind::ParamIn:
    case EdgeKind::ParamOut:
      Style = " [color=red]";
      break;
    case EdgeKind::Data:
      break;
    }
    S += "  n" + std::to_string(E.Src) + " -> n" + std::to_string(E.Dst) +
         Style + ";\n";
  }
  S += "}\n";
  return S;
}
