//===- sdg/SystemDependenceGraph.cpp - Interprocedural SDG ----------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "sdg/SystemDependenceGraph.h"

#include "cdg/ControlDependence.h"
#include "core/DepFlowGraph.h"
#include "graph/Dominators.h"
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

namespace {

/// Everything one per-function task produces: the function's PDG nodes
/// (local ids, deterministic creation order) and its intraprocedural
/// control/data edges. Committed into a function-indexed slot, so global
/// numbering is independent of worker scheduling. Node roles are positions:
/// the entry is node 0, formal-in p is node 1 + p, and instruction k
/// (block/instruction order) is node FirstInstr + k.
struct LocalPDG {
  using Node = SystemDependenceGraph::Node;
  using NodeKind = SystemDependenceGraph::NodeKind;

  static constexpr unsigned Entry = 0;
  static unsigned formalIn(unsigned Param) { return 1 + Param; }

  std::vector<Node> Nodes;
  /// (src, dst) in local ids.
  std::vector<std::pair<unsigned, unsigned>> ControlEdges, DataEdges;

  int FormalOut = -1, FormalIOIn = -1, FormalIOOut = -1;
  unsigned FirstInstr = 0;

  /// One call site's nodes: actual-in a is FirstIn + a.
  struct SiteNodes {
    unsigned Call = 0; // the call's Instr node
    unsigned FirstIn = 0;
    int IOIn = -1, IOOut = -1;
    unsigned Out = 0;
  };
  /// Indexed like CallGraph::sitesOf(F) (canonical site order).
  std::vector<SiteNodes> Sites;
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
  /// Out: immediate postdominator of each block of F.
  int *IPDom;

  /// Local node of each block's first instruction.
  std::vector<unsigned> BlockFirst;
  /// Scratch for reachingSources: DFG nodes marked visited, and the walk's
  /// stack. Every walk clears exactly the marks it set.
  std::vector<char> Visited;
  std::vector<unsigned> Touched, Work;

  unsigned addNode(LocalPDG::NodeKind K, const Instruction *I = nullptr,
                   unsigned Aux = 0, unsigned Aux2 = 0) {
    L.Nodes.push_back({K, FI, I, Aux, Aux2});
    return unsigned(L.Nodes.size() - 1);
  }

public:
  FunctionPDGBuilder(Function &F, unsigned FI, const CallGraph &CG,
                     const std::vector<char> &MayRead, LocalPDG &L,
                     int *IPDom)
      : F(F), FI(FI), CG(CG), MayRead(MayRead), L(L), IPDom(IPDom) {}

  void run() {
    using NK = LocalPDG::NodeKind;
    const std::vector<unsigned> &SiteIds = CG.sitesOf(FI);

    // --- Nodes, in a fixed order -----------------------------------------
    addNode(NK::Entry);
    for (unsigned P = 0; P != F.params().size(); ++P)
      addNode(NK::FormalIn, nullptr, P);
    if (MayRead[FI]) {
      L.FormalIOIn = int(addNode(NK::FormalIOIn));
      L.FormalIOOut = int(addNode(NK::FormalIOOut));
    }
    const Instruction *Ret = F.exit() ? F.exit()->terminator() : nullptr;
    if (Ret && Ret->numOperands() > 0)
      L.FormalOut = int(addNode(NK::FormalOut, Ret));

    L.FirstInstr = unsigned(L.Nodes.size());
    L.Sites.resize(SiteIds.size());
    BlockFirst.resize(F.numBlocks());
    unsigned SI = 0;
    for (const auto &BB : F.blocks()) {
      BlockFirst[BB->id()] = unsigned(L.Nodes.size());
      for (const auto &I : BB->instructions()) {
        unsigned N = addNode(NK::Instr, I.get());
        if (isa<CallInst>(I.get()))
          L.Sites[SI++].Call = N;
      }
    }
    assert(SI == SiteIds.size() && "sites are the calls in canonical order");

    for (SI = 0; SI != SiteIds.size(); ++SI) {
      const CallGraph::Site &S = CG.sites()[SiteIds[SI]];
      LocalPDG::SiteNodes &SN = L.Sites[SI];
      SN.FirstIn = unsigned(L.Nodes.size());
      for (unsigned A = 0; A != S.Call->numArgs(); ++A)
        addNode(NK::ActualIn, S.Call, SiteIds[SI], A);
      if (MayRead[S.Callee]) {
        SN.IOIn = int(addNode(NK::ActualIOIn, S.Call, SiteIds[SI]));
        SN.IOOut = int(addNode(NK::ActualIOOut, S.Call, SiteIds[SI]));
      }
      SN.Out = addNode(NK::ActualOut, S.Call, SiteIds[SI]);
    }

    // --- Structural analyses ---------------------------------------------
    CFGEdges E(F);
    DepFlowGraph DFG = DepFlowGraph::build(F, E);
    DomTree PDT(F, DomTree::Post);
    for (unsigned B = 0; B != F.numBlocks(); ++B)
      IPDom[B] = PDT.idom(B);
    std::vector<char> SelfDependent, EntryDependent;
    std::vector<std::vector<unsigned>> CD =
        nodeControlDependence(F, E, PDT, &SelfDependent, &EntryDependent);

    buildControlEdges(E, CD, SelfDependent, EntryDependent);
    buildDataEdges(DFG);
    if (MayRead[FI])
      buildIOEdges();
  }

private:
  /// The Instr node of \p BB's terminator (its last instruction).
  unsigned terminatorNode(const BasicBlock *BB) const {
    return BlockFirst[BB->id()] + unsigned(BB->size()) - 1;
  }

  /// Local site index of the call whose Instr node is \p CallNode.
  unsigned siteOfCall(unsigned CallNode) const {
    auto It = std::lower_bound(L.Sites.begin(), L.Sites.end(), CallNode,
                               [](const LocalPDG::SiteNodes &SN, unsigned N) {
                                 return SN.Call < N;
                               });
    assert(It != L.Sites.end() && It->Call == CallNode &&
           "call without a site");
    return unsigned(It - L.Sites.begin());
  }

  void buildControlEdges(const CFGEdges &E,
                         const std::vector<std::vector<unsigned>> &CD,
                         const std::vector<char> &SelfDependent,
                         const std::vector<char> &EntryDependent) {
    // Formals hang off the entry, actuals off their call instruction.
    for (unsigned P = 0; P != F.params().size(); ++P)
      L.ControlEdges.push_back({L.Entry, L.formalIn(P)});
    if (L.FormalIOIn >= 0)
      L.ControlEdges.push_back({L.Entry, unsigned(L.FormalIOIn)});
    if (L.FormalIOOut >= 0)
      L.ControlEdges.push_back({L.Entry, unsigned(L.FormalIOOut)});
    if (L.FormalOut >= 0)
      L.ControlEdges.push_back({L.Entry, unsigned(L.FormalOut)});
    for (const LocalPDG::SiteNodes &SN : L.Sites) {
      const unsigned NumArgs = cast<CallInst>(L.Nodes[SN.Call].I)->numArgs();
      for (unsigned A = 0; A != NumArgs; ++A)
        L.ControlEdges.push_back({SN.Call, SN.FirstIn + A});
      if (SN.IOIn >= 0)
        L.ControlEdges.push_back({SN.Call, unsigned(SN.IOIn)});
      if (SN.IOOut >= 0)
        L.ControlEdges.push_back({SN.Call, unsigned(SN.IOOut)});
      L.ControlEdges.push_back({SN.Call, SN.Out});
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
    std::vector<unsigned> Srcs;
    for (const auto &BB : F.blocks()) {
      Srcs.clear();
      for (unsigned BranchEdge : CD[BB->id()]) {
        const BasicBlock *From = E.edge(BranchEdge).From;
        assert(isa<CondBrInst>(From->terminator()) &&
               "branch edge without a condbr");
        Srcs.push_back(terminatorNode(From));
      }
      std::sort(Srcs.begin(), Srcs.end());
      Srcs.erase(std::unique(Srcs.begin(), Srcs.end()), Srcs.end());
      const unsigned Br = terminatorNode(BB.get());
      const bool Self = SelfDependent[BB->id()];
      const bool OnEntry = Srcs.empty() || EntryDependent[BB->id()];
      for (unsigned Dst = BlockFirst[BB->id()]; Dst <= Br; ++Dst) {
        if (OnEntry)
          L.ControlEdges.push_back({L.Entry, Dst});
        for (unsigned Src : Srcs)
          L.ControlEdges.push_back({Src, Dst});
        if (Self && Dst != Br)
          L.ControlEdges.push_back({Br, Dst});
      }
    }
  }

  /// All reaching definition sources of DFG use node \p Use of variable
  /// \p V, walked backward through the DFG's switch/merge routing until a
  /// def or the entry.
  void reachingSources(const DepFlowGraph &DFG, int Use, VarId V,
                       std::vector<unsigned> &SrcsOut) {
    if (Use < 0)
      return;
    auto Mark = [&](unsigned N) {
      Visited[N] = 1;
      Touched.push_back(N);
    };
    Mark(unsigned(Use));
    Work.push_back(unsigned(Use));
    while (!Work.empty()) {
      unsigned N = Work.back();
      Work.pop_back();
      for (unsigned EId : DFG.inEdges(N)) {
        const DepFlowGraph::Edge &DE = DFG.edge(EId);
        if (DE.Var != V || Visited[DE.Src])
          continue;
        Mark(DE.Src);
        switch (DFG.node(DE.Src).Kind) {
        case DepFlowGraph::NodeKind::Def: {
          // A def by a call materializes at the site's actual-out.
          unsigned Def = L.FirstInstr + unsigned(DFG.instrIndexOf(DE.Src));
          if (isa<CallInst>(L.Nodes[Def].I))
            Def = L.Sites[siteOfCall(Def)].Out;
          SrcsOut.push_back(Def);
          break;
        }
        case DepFlowGraph::NodeKind::Entry:
          // Initial values: parameters flow from their formal-in; plain
          // variables are implicitly zero (no dependence).
          for (unsigned P = 0; P != F.params().size(); ++P)
            if (F.params()[P] == V)
              SrcsOut.push_back(L.formalIn(P));
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
    for (unsigned N : Touched)
      Visited[N] = 0;
    Touched.clear();
    std::sort(SrcsOut.begin(), SrcsOut.end());
    SrcsOut.erase(std::unique(SrcsOut.begin(), SrcsOut.end()), SrcsOut.end());
  }

  void buildDataEdges(const DepFlowGraph &DFG) {
    Visited.assign(DFG.numNodes(), 0);
    std::vector<unsigned> Srcs;
    unsigned K = 0, SI = 0;
    for (const auto &BB : F.blocks()) {
      for (const auto &IPtr : BB->instructions()) {
        const Instruction *I = IPtr.get();
        const unsigned Idx = K++;
        const LocalPDG::SiteNodes *Site =
            isa<CallInst>(I) ? &L.Sites[SI++] : nullptr;
        for (unsigned OpIdx = 0; OpIdx != I->numOperands(); ++OpIdx) {
          const Operand &Op = I->operand(OpIdx);
          if (!Op.isVar())
            continue;
          Srcs.clear();
          reachingSources(DFG, DFG.useNodeAt(Idx, OpIdx), Op.var(), Srcs);
          // A call's argument value feeds the site's actual-in node; every
          // other operand feeds the instruction itself.
          unsigned Dst = Site ? Site->FirstIn + OpIdx : L.FirstInstr + Idx;
          for (unsigned Src : Srcs)
            L.DataEdges.push_back({Src, Dst});
        }
      }
    }
    // The function's return value: reaching defs of the first ret operand
    // feed formal-out (the value a call site receives).
    if (L.FormalOut >= 0) {
      const Operand &Op = F.exit()->terminator()->operand(0);
      if (Op.isVar()) {
        Srcs.clear();
        unsigned RetIdx = terminatorNode(F.exit()) - L.FirstInstr;
        reachingSources(DFG, DFG.useNodeAt(RetIdx, 0), Op.var(), Srcs);
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
    unsigned N = L.FirstInstr, SI = 0;
    for (const auto &BB : F.blocks())
      for (const auto &IPtr : BB->instructions()) {
        const Instruction *I = IPtr.get();
        const unsigned Node = N++;
        if (isa<ReadInst>(I)) {
          PointsOf[BB->id()].push_back(unsigned(Points.size()));
          Points.push_back({BB->id(), Node, Node});
        } else if (isa<CallInst>(I)) {
          const LocalPDG::SiteNodes &SN = L.Sites[SI++];
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
  const CallGraph CG = CallGraph::build(M);
  const unsigned NF = M.numFunctions();
  const unsigned NS = unsigned(CG.sites().size());

  // May-read: a function reads if it contains a read() or calls a reader.
  // Bottom-up over the condensation; within an SCC the property is shared
  // (mutual recursion), so iterate members until stable.
  std::vector<char> MayRead(NF, 0);
  for (unsigned FI = 0; FI != NF; ++FI)
    for (const auto &BB : M.function(FI)->blocks())
      for (const auto &I : BB->instructions())
        if (isa<ReadInst>(I.get()))
          MayRead[FI] = 1;
  for (unsigned SCC = 0; SCC != CG.numSCCs(); ++SCC) {
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (unsigned FI : CG.members(SCC))
        if (!MayRead[FI])
          for (unsigned Callee : CG.calleesOf(FI))
            if (MayRead[Callee]) {
              MayRead[FI] = 1;
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
  // Each task also writes its function's immediate postdominators into
  // its own range of G.IPDom.
  G.FirstBlock.assign(NF + 1, 0);
  for (unsigned FI = 0; FI != NF; ++FI)
    G.FirstBlock[FI + 1] = G.FirstBlock[FI] + M.function(FI)->numBlocks();
  G.IPDom.assign(G.FirstBlock[NF], -1);
  std::vector<LocalPDG> Locals(NF);
  Pool.runLevel(
      NF, [&](unsigned FI) { return "pdg:" + M.function(FI)->name(); },
      [&](unsigned FI) {
        FunctionPDGBuilder B(*M.function(FI), FI, CG, MayRead, Locals[FI],
                             G.IPDom.data() + G.FirstBlock[FI]);
        B.run();
      });

  // --- Phase B: global numbering + interprocedural stitching (serial) ---
  // Phases B-D name a node by its function's Base plus its local id.
  std::vector<unsigned> Base(NF + 1, 0);
  for (unsigned FI = 0; FI != NF; ++FI)
    Base[FI + 1] = Base[FI] + unsigned(Locals[FI].Nodes.size());
  G.Nodes.reserve(Base[NF]);
  G.FirstInstr.resize(NF);
  for (unsigned FI = 0; FI != NF; ++FI) {
    G.Nodes.insert(G.Nodes.end(), Locals[FI].Nodes.begin(),
                   Locals[FI].Nodes.end());
    G.FirstInstr[FI] = Base[FI] + Locals[FI].FirstInstr;
  }

  for (unsigned FI = 0; FI != NF; ++FI) {
    for (auto [Src, Dst] : Locals[FI].ControlEdges)
      G.Edges.push_back({Base[FI] + Src, Base[FI] + Dst, EdgeKind::Control});
    for (auto [Src, Dst] : Locals[FI].DataEdges)
      G.Edges.push_back({Base[FI] + Src, Base[FI] + Dst, EdgeKind::Data});
  }

  // A site's nodes in its caller's local ids; Lift maps a local id of
  // function FI to its global id (-1, an absent node, stays -1).
  auto SiteNodesOf = [&](unsigned Site) -> const LocalPDG::SiteNodes & {
    unsigned Caller = CG.sites()[Site].Caller;
    return Locals[Caller].Sites[Site - CG.sitesOf(Caller).front()];
  };
  auto Lift = [&](unsigned FI, int Local) {
    return Local < 0 ? -1 : int(Base[FI] + unsigned(Local));
  };
  auto NumParams = [&](unsigned FI) {
    return unsigned(M.function(FI)->params().size());
  };

  G.CallNodes.resize(NS);
  for (unsigned Site = 0; Site != NS; ++Site) {
    const unsigned Caller = CG.sites()[Site].Caller;
    const unsigned Callee = CG.sites()[Site].Callee;
    const LocalPDG::SiteNodes &SN = SiteNodesOf(Site);
    const LocalPDG &C = Locals[Callee];
    G.CallNodes[Site] = Base[Caller] + SN.Call;
    G.Edges.push_back(
        {G.CallNodes[Site], Base[Callee] + LocalPDG::Entry, EdgeKind::Call});
    assert(cast<CallInst>(G.Nodes[G.CallNodes[Site]].I)->numArgs() ==
               NumParams(Callee) &&
           "arity verified before SDG construction");
    for (unsigned A = 0; A != NumParams(Callee); ++A)
      G.Edges.push_back({Base[Caller] + SN.FirstIn + A,
                         Base[Callee] + LocalPDG::formalIn(A),
                         EdgeKind::ParamIn});
    if (SN.IOIn >= 0) {
      G.Edges.push_back({unsigned(Lift(Caller, SN.IOIn)),
                         unsigned(Lift(Callee, C.FormalIOIn)),
                         EdgeKind::ParamIn});
      G.Edges.push_back({unsigned(Lift(Callee, C.FormalIOOut)),
                         unsigned(Lift(Caller, SN.IOOut)), EdgeKind::ParamOut});
    }
    if (C.FormalOut >= 0)
      G.Edges.push_back({unsigned(Lift(Callee, C.FormalOut)),
                         Base[Caller] + SN.Out, EdgeKind::ParamOut});
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
    unsigned Ports = NumParams(FI) + (Locals[FI].FormalIOIn >= 0 ? 1 : 0);
    Summaries[FI].RetDeps.assign(Ports, 0);
    Summaries[FI].IODeps.assign(Ports, 0);
  }
  auto InPortIndex = [&](unsigned FI, unsigned NodeId) -> int {
    const Node &N = G.Nodes[NodeId];
    if (N.Kind == NodeKind::FormalIn)
      return int(N.Aux);
    if (N.Kind == NodeKind::FormalIOIn)
      return int(NumParams(FI));
    return -1;
  };
  // The actual node of in-port \p Port at \p Site (-1 when absent).
  auto ActualInOf = [&](unsigned Site, unsigned Port) -> int {
    const LocalPDG::SiteNodes &SN = SiteNodesOf(Site);
    unsigned Caller = CG.sites()[Site].Caller;
    if (Port < NumParams(CG.sites()[Site].Callee))
      return int(Base[Caller] + SN.FirstIn + Port);
    return Lift(Caller, SN.IOIn);
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
        for (unsigned P = 0; P != Deps.size(); ++P) {
          if (!Deps[P])
            continue;
          int ActualNode = ActualInOf(Site, P);
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
        const LocalPDG &L = Locals[FI];
        std::vector<char> Visited(L.Nodes.size(), 0);
        FnSummary &S = Summaries[FI];
        std::vector<char> Fresh(S.RetDeps.size(), 0);
        if (L.FormalOut >= 0) {
          ComputePort(FI, unsigned(Lift(FI, L.FormalOut)), Fresh, Visited);
          if (Fresh != S.RetDeps) {
            S.RetDeps = Fresh;
            Changed = true;
          }
        }
        if (L.FormalIOOut >= 0) {
          ComputePort(FI, unsigned(Lift(FI, L.FormalIOOut)), Fresh, Visited);
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
    const unsigned Caller = CG.sites()[Site].Caller;
    const unsigned Callee = CG.sites()[Site].Callee;
    const LocalPDG::SiteNodes &SN = SiteNodesOf(Site);
    const FnSummary &S = Summaries[Callee];
    auto EmitSummary = [&](const std::vector<char> &Deps, int OutNode) {
      if (OutNode < 0)
        return;
      for (unsigned P = 0; P != Deps.size(); ++P) {
        if (!Deps[P])
          continue;
        int InNode = ActualInOf(Site, P);
        if (InNode >= 0)
          G.Edges.push_back(
              {unsigned(InNode), unsigned(OutNode), EdgeKind::Summary});
      }
    };
    if (Locals[Callee].FormalOut >= 0)
      EmitSummary(S.RetDeps, Lift(Caller, int(SN.Out)));
    if (Locals[Callee].FormalIOOut >= 0)
      EmitSummary(S.IODeps, Lift(Caller, SN.IOOut));
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
    if (Locals[FI].FormalOut >= 0)
      HistSDGSummaryPorts.sample(std::uint64_t(
          std::count(Summaries[FI].RetDeps.begin(),
                     Summaries[FI].RetDeps.end(), char(1))));
    if (Locals[FI].FormalIOOut >= 0)
      HistSDGSummaryPorts.sample(std::uint64_t(
          std::count(Summaries[FI].IODeps.begin(), Summaries[FI].IODeps.end(),
                     char(1))));
  }

  Pool.finish();
  return G;
}
