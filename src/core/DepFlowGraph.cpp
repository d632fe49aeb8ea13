//===- core/DepFlowGraph.cpp - The dependence flow graph ------------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "core/DepFlowGraph.h"

#include "graph/Dominators.h"
#include "structure/CycleEquivalence.h"
#include "support/Statistic.h"

#include <algorithm>
#include <functional>

using namespace depflow;

// Telemetry for the paper's O(E·V) construction claim: base edges created
// is the unit of routing work, so bench_dfg_construction fits its slope
// against E·(V+1). The bypass histogram records how much switch/merge
// traffic each SESE region's redirect short-circuits.
DEPFLOW_STATISTIC(NumDFGBaseEdges, "dfg-build",
                  "DFG edges created by the per-variable routing");
DEPFLOW_STATISTIC(NumDFGBypassRedirects, "dfg-build",
                  "Region exit deps redirected to the entry dep (bypass)");
DEPFLOW_STATISTIC(NumDFGDeadEdgesRemoved, "dfg-build",
                  "Edges removed by the dead-edge prune");
DEPFLOW_STATISTIC(NumDFGDeadNodesRemoved, "dfg-build",
                  "Nodes removed by the dead-edge prune");
DEPFLOW_HIST_STATISTIC(HistDFGBypassPerRegion, "dfg-build",
                       "Bypass redirects per SESE region (all variables)");

namespace {

/// A dependence value's identity while routing: a node output port.
struct Source {
  int Node = -1;
  std::uint16_t Port = 0;
};

} // namespace

int DepFlowGraph::instrIndex(const Instruction *I) const {
  const InstKey *First = InstIndex;
  const InstKey *Last = InstIndex + NumInstrs;
  const InstKey *It = std::lower_bound(
      First, Last, I, [](const InstKey &K, const Instruction *P) {
        return std::less<const Instruction *>()(K.I, P);
      });
  if (It == Last || It->I != I)
    return -1;
  return int(It->Idx);
}

/// Builds a DepFlowGraph; a friend of the class so it can fill the private
/// tables directly.
class depflow::DFGBuilder {
  Function &F;
  const CFGEdges &E;
  DepFlowGraph::BypassMode Mode;
  DepFlowGraph G;

  unsigned NumVarsWithCtrl;
  const ProgramStructureTree *PST = nullptr;  // Borrowed (caller's cache)...
  std::unique_ptr<ProgramStructureTree> OwnedPST; // ...or built here.
  std::vector<std::uint64_t> RegionDefs; // flat [region][word] def bitsets
  std::size_t DefWords = 0;              // words per region
  /// Block ids in reverse postorder, each tagged with its merge/switch
  /// flags so the per-variable loops read no block state for them.
  std::vector<unsigned> RPO;
  std::vector<std::uint64_t> BypassPerRegion; // histogram accumulator
  std::vector<Source> Dep;           // per CFG edge; reused across variables
  std::vector<std::uint32_t> InstrBase; // block id -> first instr index

  static constexpr unsigned MergeBit = 1u << 31;
  static constexpr unsigned SwitchBit = 1u << 30;
  static constexpr unsigned BlockIdMask = SwitchBit - 1;

  /// Exact pre-prune sizes, counted before routing.
  std::uint32_t NumBaseNodes = 0;
  std::uint32_t NumBaseEdges = 0;

  /// The prune's scratch, carved from one arena before routing (its size
  /// needs only the exact pre-prune counts). Until the prune runs, routing
  /// borrows four of its arrays for the per-variable occurrence lists
  /// ("taps"): TapOff = InCnt, TapFill = Fill, TapInst = Stack and
  /// TapCode = NewId. A tap is (instruction index, code), where code is
  /// the operand index of a use (numOperands() for the control use) or
  /// DefTap for the def; variable V's taps are [TapOff[V], TapOff[V+1]),
  /// in RPO block order and instruction order within a block.
  BumpArena Scratch;
  std::uint32_t *InCnt = nullptr;
  std::uint32_t *InTmp = nullptr;
  std::uint32_t *Fill = nullptr;
  std::uint64_t *Alive = nullptr;
  std::uint32_t *Stack = nullptr;
  std::int32_t *NewId = nullptr;
  static constexpr std::int32_t DefTap = -1;

public:
  DFGBuilder(Function &F, const CFGEdges &E, DepFlowGraph::BypassMode Mode,
             const ProgramStructureTree *SharedPST = nullptr)
      : F(F), E(E), Mode(Mode), PST(SharedPST) {}

  DepFlowGraph run() {
    assert(F.exit() && "DFG construction requires a verified function");
    G.ControlVar = F.numVars();
    NumVarsWithCtrl = F.numVars() + 1;
    G.NumVarsWithCtrl = NumVarsWithCtrl;
    G.NumBlocksAtBuild = F.numBlocks();
    G.NumCFGEdges = E.size();

    numberInstructions();
    G.EntryOfVarTab = G.Pool.allocateFilled<std::int32_t>(NumVarsWithCtrl, -1);
    G.SwitchTab = G.Pool.allocateFilled<std::int32_t>(
        std::size_t(F.numBlocks()) * NumVarsWithCtrl, -1);
    G.MergeTab = G.Pool.allocateFilled<std::int32_t>(
        std::size_t(F.numBlocks()) * NumVarsWithCtrl, -1);
    G.DepTab = G.Pool.allocateFilled<DepFlowGraph::DepSlot>(
        std::size_t(NumVarsWithCtrl) * E.size(), {-1, 0});

    computeRPO();
    if (Mode == DepFlowGraph::BypassMode::SESE) {
      if (!PST) {
        CycleEquivalence CE = cycleEquivalenceClasses(F, E);
        OwnedPST = std::make_unique<ProgramStructureTree>(F, E, CE);
        PST = OwnedPST.get();
      }
      computeRegionDefs();
      BypassPerRegion.assign(PST->numRegions(), 0);
    }

    reserveColumns();
    collectTaps();
    Dep.resize(E.size());
    for (VarId V = 0; V != NumVarsWithCtrl; ++V)
      routeVariable(V);
    assert(G.numNodes() == NumBaseNodes && G.numEdges() == NumBaseEdges &&
           "pre-prune counts predicted exactly");

    // Region 0 is the whole function and never closes, so the histogram
    // covers only canonical regions.
    for (unsigned R = 1; R < BypassPerRegion.size(); ++R)
      HistDFGBypassPerRegion.sample(BypassPerRegion[R]);

    G.BuildStats.NodesBeforePrune = G.numNodes();
    G.BuildStats.EdgesBeforePrune = G.numEdges();
    prune();
    Scratch = BumpArena();
    buildAdjacency();
    NumDFGDeadEdgesRemoved += G.BuildStats.EdgesBeforePrune - G.numEdges();
    NumDFGDeadNodesRemoved += G.BuildStats.NodesBeforePrune - G.numNodes();
    return std::move(G);
  }

private:
  /// Numbers instructions and blocks canonically (function order) and lays
  /// out the per-instruction tables: def node, use-slot CSR (one slot per
  /// operand plus one for the control use), and the sorted pointer index.
  void numberInstructions() {
    std::uint32_t NumInstrs = 0, NumSlots = 0;
    for (const auto &BB : F.blocks())
      for (const auto &I : BB->instructions()) {
        ++NumInstrs;
        NumSlots += I->numOperands() + 1;
      }
    G.NumInstrs = NumInstrs;
    G.InstrByIdx = G.Pool.allocateArray<Instruction *>(NumInstrs);
    G.BlockByIdx = G.Pool.allocateArray<BasicBlock *>(F.numBlocks());
    G.InstIndex = G.Pool.allocateArray<DepFlowGraph::InstKey>(NumInstrs);
    G.DefNodeOfInstr = G.Pool.allocateFilled<std::int32_t>(NumInstrs, -1);
    G.UseOff = G.Pool.allocateArray<std::uint32_t>(NumInstrs + 1);
    G.UseSlots = G.Pool.allocateFilled<std::int32_t>(NumSlots, -1);
    InstrBase.assign(F.numBlocks(), 0);

    std::uint32_t Idx = 0, Slot = 0;
    for (const auto &BB : F.blocks()) {
      G.BlockByIdx[BB->id()] = BB.get();
      InstrBase[BB->id()] = Idx;
      for (const auto &I : BB->instructions()) {
        G.InstrByIdx[Idx] = I.get();
        G.InstIndex[Idx] = {I.get(), Idx};
        G.UseOff[Idx] = Slot;
        Slot += I->numOperands() + 1;
        ++Idx;
      }
    }
    G.UseOff[NumInstrs] = Slot;
    std::sort(G.InstIndex, G.InstIndex + NumInstrs,
              [](const DepFlowGraph::InstKey &A,
                 const DepFlowGraph::InstKey &B) {
                return std::less<const Instruction *>()(A.I, B.I);
              });
  }

  void computeRPO() {
    // Successor order is the out-edge order of E, so traversing edge ids
    // avoids materializing successor vectors per block.
    std::vector<unsigned> Postorder;
    std::vector<bool> Seen(F.numBlocks(), false);
    std::vector<std::pair<BasicBlock *, unsigned>> Stack;
    Stack.push_back({F.entry(), 0});
    Seen[F.entry()->id()] = true;
    while (!Stack.empty()) {
      auto &[BB, Cursor] = Stack.back();
      const auto &Out = E.outEdges(BB);
      if (Cursor < Out.size()) {
        BasicBlock *Next = E.edge(Out[Cursor++]).To;
        if (!Seen[Next->id()]) {
          Seen[Next->id()] = true;
          Stack.push_back({Next, 0});
        }
      } else {
        Postorder.push_back(BB->id());
        Stack.pop_back();
      }
    }
    RPO.assign(Postorder.rbegin(), Postorder.rend());
    for (unsigned &R : RPO) {
      assert(R <= BlockIdMask && "block id collides with the RPO flag bits");
      const BasicBlock *BB = F.block(R);
      if (BB->isMerge())
        R |= MergeBit;
      if (BB->isSwitch())
        R |= SwitchBit;
    }
  }

  /// Counts the base routing exactly (one entry per variable, one
  /// merge/switch per join/branch per variable, one use per variable
  /// operand, one def per assignment) and reserves every node/edge column
  /// at that size, so the columns never reallocate while routing.
  void reserveColumns() {
    std::uint32_t MergeBlocks = 0, SwitchBlocks = 0, MergeIndeg = 0,
                  SwitchOut = 0;
    std::uint32_t VarUses = 0, CtrlUses = 0, Defs = 0;
    for (unsigned R : RPO) {
      const BasicBlock *BB = F.block(R & BlockIdMask);
      if (R & MergeBit) {
        ++MergeBlocks;
        MergeIndeg += std::uint32_t(E.inEdges(BB).size());
      }
      if (R & SwitchBit)
        ++SwitchBlocks;
      if (E.outEdges(BB).size() > 1)
        ++SwitchOut;
      for (const auto &I : BB->instructions()) {
        assert(!isa<PhiInst>(I.get()) &&
               "DFG construction runs on phi-free IR");
        bool HasVarOperand = false;
        for (unsigned OpIdx = 0, N = I->numOperands(); OpIdx != N; ++OpIdx)
          if (I->operand(OpIdx).isVar()) {
            HasVarOperand = true;
            ++VarUses;
          }
        if (!HasVarOperand && (isa<DefInst>(I.get()) || I->numOperands() > 0))
          ++CtrlUses;
        if (isa<DefInst>(I.get()))
          ++Defs;
      }
    }
    NumBaseNodes = NumVarsWithCtrl * (1 + MergeBlocks + SwitchBlocks) +
                   VarUses + CtrlUses + Defs;
    NumBaseEdges =
        VarUses + CtrlUses + NumVarsWithCtrl * (SwitchOut + MergeIndeg);
    G.NodeKinds.reserve(NumBaseNodes);
    G.NodeVars.reserve(NumBaseNodes);
    G.NodeInst.reserve(NumBaseNodes);
    G.NodeOp.reserve(NumBaseNodes);
    G.NodeBlock.reserve(NumBaseNodes);
    G.Edges.reserve(NumBaseEdges);
  }

  /// Carves the prune's scratch and buckets every variable's taps with one
  /// stable counting sort over the instructions in RPO block order. Each
  /// instruction contributes its variable uses in operand order, then the
  /// control use (Section 3.3: statements with no variable operands; also
  /// terminators carrying only immediates, so that dead code reporting
  /// covers their operands uniformly), then its def.
  void collectTaps() {
    const std::uint32_t NN = NumBaseNodes, NE = NumBaseEdges;
    Scratch = BumpArena(std::size_t(NN) * 12 + std::size_t(NE) * 4 + 256);
    InCnt = Scratch.allocateFilled<std::uint32_t>(NN + 1, 0);
    InTmp = Scratch.allocateArray<std::uint32_t>(NE);
    Fill = Scratch.allocateArray<std::uint32_t>(NN);
    Alive = Scratch.allocateFilled<std::uint64_t>((std::size_t(NN) + 63) / 64,
                                                  0);
    Stack = Scratch.allocateArray<std::uint32_t>(NN);
    NewId = Scratch.allocateArray<std::int32_t>(NN);

    // Every variable owns an entry node and every tap a node, so the
    // borrowed arrays are large enough: NN >= NumVarsWithCtrl + taps.
    std::uint32_t *TapOff = InCnt, *TapFill = Fill, *TapInst = Stack;
    std::int32_t *TapCode = NewId;
    auto ForEachTap = [&](auto Visit) {
      for (unsigned R : RPO) {
        const BasicBlock *BB = F.block(R & BlockIdMask);
        std::uint32_t InstIdx = InstrBase[R & BlockIdMask];
        for (const auto &IPtr : BB->instructions()) {
          const Instruction *I = IPtr.get();
          assert(G.InstrByIdx[InstIdx] == I && "canonical numbering in sync");
          bool HasVarOperand = false;
          for (unsigned OpIdx = 0, N = I->numOperands(); OpIdx != N; ++OpIdx)
            if (const Operand &Op = I->operand(OpIdx); Op.isVar()) {
              HasVarOperand = true;
              Visit(Op.var(), InstIdx, std::int32_t(OpIdx));
            }
          if (!HasVarOperand && (isa<DefInst>(I) || I->numOperands() > 0))
            Visit(G.ControlVar, InstIdx, std::int32_t(I->numOperands()));
          if (const auto *D = dyn_cast<DefInst>(I))
            Visit(D->def(), InstIdx, DefTap);
          ++InstIdx;
        }
      }
    };
    ForEachTap([&](VarId V, std::uint32_t, std::int32_t) { ++TapOff[V + 1]; });
    for (VarId V = 0; V != NumVarsWithCtrl; ++V) {
      TapOff[V + 1] += TapOff[V];
      TapFill[V] = TapOff[V];
    }
    ForEachTap([&](VarId V, std::uint32_t InstIdx, std::int32_t Code) {
      std::uint32_t K = TapFill[V]++;
      TapInst[K] = InstIdx;
      TapCode[K] = Code;
    });
  }

  void computeRegionDefs() {
    DefWords = (NumVarsWithCtrl + 63) / 64;
    RegionDefs.assign(PST->numRegions() * DefWords, 0);
    for (const auto &BB : F.blocks()) {
      std::uint64_t *Defs =
          RegionDefs.data() + PST->regionOfBlock(BB->id()) * DefWords;
      for (const auto &I : BB->instructions())
        if (const auto *D = dyn_cast<DefInst>(I.get()))
          Defs[D->def() / 64] |= std::uint64_t(1) << (D->def() % 64);
    }
    // Aggregate defs inside-out (children before parents): child region ids
    // are always larger than the parent's only in discovery order, so walk
    // regions by decreasing depth instead.
    std::vector<unsigned> Order(PST->numRegions());
    for (unsigned R = 0; R != PST->numRegions(); ++R)
      Order[R] = R;
    std::sort(Order.begin(), Order.end(), [&](unsigned A, unsigned B) {
      return PST->region(A).Depth > PST->region(B).Depth;
    });
    for (unsigned R : Order)
      if (int P = PST->region(R).Parent; P >= 0)
        for (std::size_t W = 0; W != DefWords; ++W)
          RegionDefs[unsigned(P) * DefWords + W] |=
              RegionDefs[R * DefWords + W];
  }

  unsigned makeNode(DepFlowGraph::NodeKind Kind, VarId V,
                    std::int32_t InstIdx, std::uint32_t OpIdx,
                    std::int32_t BlockId) {
    G.NodeKinds.push_back(std::uint8_t(Kind));
    G.NodeVars.push_back(V);
    G.NodeInst.push_back(InstIdx);
    G.NodeOp.push_back(OpIdx);
    G.NodeBlock.push_back(BlockId);
    return G.NodeKinds.size() - 1;
  }

  void addEdge(Source Src, unsigned Dst, VarId V, std::uint16_t DstPort = 0) {
    assert(Src.Node >= 0 && "dependence source must be resolved");
    G.Edges.push_back({unsigned(Src.Node), Dst, V, Src.Port, DstPort});
    ++NumDFGBaseEdges;
  }

  /// True if canonical region \p R contains no assignment to \p V (the
  /// bypass condition; the control variable is only assigned at entry, so
  /// every region is bypassable for it — its uses are still fed through
  /// the interior routing, which is what makes them control edges).
  bool regionBypassable(unsigned R, VarId V) const {
    return !(RegionDefs[R * DefWords + V / 64] >> (V % 64) & 1);
  }

  int32_t &switchSlot(unsigned B, VarId V) {
    return G.SwitchTab[std::size_t(B) * NumVarsWithCtrl + V];
  }
  int32_t &mergeSlot(unsigned B, VarId V) {
    return G.MergeTab[std::size_t(B) * NumVarsWithCtrl + V];
  }

  void routeVariable(VarId V) {
    std::fill(Dep.begin(), Dep.end(), Source{});

    unsigned EntryNode = makeNode(DepFlowGraph::NodeKind::Entry, V, -1, 0,
                                  std::int32_t(F.entry()->id()));
    G.EntryOfVarTab[V] = int(EntryNode);

    // Pre-create merge and switch nodes (base level: at every join/branch).
    for (unsigned R : RPO) {
      unsigned B = R & BlockIdMask;
      if (R & MergeBit)
        mergeSlot(B, V) = std::int32_t(makeNode(
            DepFlowGraph::NodeKind::Merge, V, -1, 0, std::int32_t(B)));
      if (R & SwitchBit)
        switchSlot(B, V) = std::int32_t(makeNode(
            DepFlowGraph::NodeKind::Switch, V, -1, 0, std::int32_t(B)));
    }

    // Assign dep[] to an out-edge, applying the region-bypass redirect:
    // the exit edge of a bypassable region carries the value of its entry
    // edge, not the interior through-value.
    auto SetDep = [&](unsigned EdgeId, Source Src) {
      if (Mode == DepFlowGraph::BypassMode::SESE) {
        int R = PST->regionClosedBy(EdgeId);
        if (R >= 0 && regionBypassable(unsigned(R), V)) {
          unsigned EntryEdge = unsigned(PST->region(unsigned(R)).EntryEdge);
          assert(Dep[EntryEdge].Node >= 0 &&
                 "region entry dep resolved before its exit (RPO order)");
          Dep[EdgeId] = Dep[EntryEdge];
          ++G.BuildStats.BypassRedirects;
          ++NumDFGBypassRedirects;
          ++BypassPerRegion[unsigned(R)];
          return;
        }
      }
      Dep[EdgeId] = Src;
    };

    const std::uint32_t *TapOff = InCnt, *TapInst = Stack;
    const std::int32_t *TapCode = NewId;
    std::uint32_t K = TapOff[V];
    const std::uint32_t KEnd = TapOff[V + 1];
    for (unsigned R : RPO) {
      unsigned B = R & BlockIdMask;
      BasicBlock *BB = F.block(B);
      // Incoming dependence.
      Source Cur;
      if (BB == F.entry()) {
        Cur = {int(EntryNode), 0};
      } else if (R & MergeBit) {
        Cur = {mergeSlot(B, V), 0};
      } else {
        const auto &In = E.inEdges(BB);
        assert(In.size() == 1 && "non-entry block without merge has one pred");
        assert(Dep[In[0]].Node >= 0 && "single pred processed before (RPO)");
        Cur = Dep[In[0]];
      }

      // This block's taps (the next ones in V's list whose instruction
      // index falls in the block's range): uses read Cur, a def replaces
      // it.
      const std::uint32_t First = InstrBase[B];
      const std::uint32_t Size = std::uint32_t(BB->size());
      for (; K != KEnd && TapInst[K] - First < Size; ++K) {
        const std::uint32_t InstIdx = TapInst[K];
        if (TapCode[K] == DefTap) {
          unsigned DefId = makeNode(DepFlowGraph::NodeKind::Def, V,
                                    std::int32_t(InstIdx), 0,
                                    std::int32_t(B));
          G.DefNodeOfInstr[InstIdx] = std::int32_t(DefId);
          Cur = {int(DefId), 0};
          continue;
        }
        const std::uint32_t OpIdx = std::uint32_t(TapCode[K]);
        unsigned UseId = makeNode(DepFlowGraph::NodeKind::Use, V,
                                  std::int32_t(InstIdx), OpIdx,
                                  std::int32_t(B));
        G.UseSlots[G.UseOff[InstIdx] + OpIdx] = std::int32_t(UseId);
        addEdge(Cur, UseId, V);
      }

      // Outgoing dependence.
      const auto &Out = E.outEdges(BB);
      if (Out.size() > 1) {
        int S = switchSlot(B, V);
        assert(S >= 0 && "switch node pre-created");
        addEdge(Cur, unsigned(S), V);
        for (unsigned SI = 0; SI != Out.size(); ++SI)
          SetDep(Out[SI], {S, std::uint16_t(SI)});
      } else if (Out.size() == 1) {
        SetDep(Out[0], Cur);
      }
    }
    assert(K == KEnd && "every tap of V lies in a reachable block");

    // Wire merges now that every dep slot (including back edges) is known.
    for (unsigned R : RPO) {
      if (!(R & MergeBit))
        continue;
      unsigned B = R & BlockIdMask;
      int M = mergeSlot(B, V);
      const auto &In = E.inEdges(F.block(B));
      for (unsigned PI = 0; PI != In.size(); ++PI) {
        assert(Dep[In[PI]].Node >= 0 && "all deps resolved after block pass");
        addEdge(Dep[In[PI]], unsigned(M), V, std::uint16_t(PI));
      }
    }

    // Record which source's value crosses each CFG edge (projection hook).
    for (unsigned EId = 0; EId != E.size(); ++EId)
      G.DepTab[std::size_t(V) * E.size() + EId] = {Dep[EId].Node,
                                                   Dep[EId].Port};
  }

  /// Dead edge removal: keep exactly the nodes that can reach a Use.
  /// Compaction preserves ascending node/edge order, so the surviving ids
  /// are a dense prefix-order renumbering — identical across builds — and
  /// each variable's edges stay one contiguous id range.
  void prune() {
    const unsigned NN = G.numNodes();
    const unsigned NE = G.numEdges();

    // Traversal scratch (carved in collectTaps, the taps now dead): a
    // temporary in-edge CSR (counting sort over edges — ascending per
    // node), the alive bitset, and the DFS stack.
    std::fill(InCnt, InCnt + NN + 1, 0);
    for (const DepFlowGraph::Edge &Ed : G.Edges)
      ++InCnt[Ed.Dst + 1];
    for (unsigned N = 0; N != NN; ++N)
      InCnt[N + 1] += InCnt[N];
    for (unsigned N = 0; N != NN; ++N)
      Fill[N] = InCnt[N];
    for (unsigned Id = 0; Id != NE; ++Id)
      InTmp[Fill[G.Edges[Id].Dst]++] = Id;

    auto IsAlive = [&](unsigned N) {
      return (Alive[N >> 6] >> (N & 63)) & 1;
    };
    auto SetAlive = [&](unsigned N) {
      Alive[N >> 6] |= std::uint64_t(1) << (N & 63);
    };
    std::uint32_t SP = 0;
    for (unsigned N = 0; N != NN; ++N) {
      if (DepFlowGraph::NodeKind(G.NodeKinds[N]) ==
          DepFlowGraph::NodeKind::Use) {
        SetAlive(N);
        Stack[SP++] = N;
      }
    }
    while (SP) {
      unsigned N = Stack[--SP];
      for (std::uint32_t I = InCnt[N]; I != InCnt[N + 1]; ++I) {
        unsigned Src = G.Edges[InTmp[I]].Src;
        if (!IsAlive(Src)) {
          SetAlive(Src);
          Stack[SP++] = Src;
        }
      }
    }

    // Compact node columns and edges in place (ascending order).
    std::uint32_t LiveN = 0;
    for (unsigned N = 0; N != NN; ++N) {
      if (IsAlive(N)) {
        NewId[N] = std::int32_t(LiveN);
        if (LiveN != N) {
          G.NodeKinds[LiveN] = G.NodeKinds[N];
          G.NodeVars[LiveN] = G.NodeVars[N];
          G.NodeInst[LiveN] = G.NodeInst[N];
          G.NodeOp[LiveN] = G.NodeOp[N];
          G.NodeBlock[LiveN] = G.NodeBlock[N];
        }
        ++LiveN;
      } else {
        NewId[N] = -1;
      }
    }
    G.NodeKinds.resize(LiveN);
    G.NodeVars.resize(LiveN);
    G.NodeInst.resize(LiveN);
    G.NodeOp.resize(LiveN);
    G.NodeBlock.resize(LiveN);

    std::uint32_t LiveE = 0;
    for (unsigned Id = 0; Id != NE; ++Id) {
      const DepFlowGraph::Edge &Ed = G.Edges[Id];
      if (NewId[Ed.Src] >= 0 && NewId[Ed.Dst] >= 0)
        G.Edges[LiveE++] = {unsigned(NewId[Ed.Src]), unsigned(NewId[Ed.Dst]),
                            Ed.Var, Ed.SrcPort, Ed.DstPort};
    }
    G.Edges.resize(LiveE);

    // Remap the flat lookup tables.
    auto Remap = [&](std::int32_t &N) {
      N = N >= 0 ? NewId[unsigned(N)] : -1;
    };
    for (unsigned V = 0; V != NumVarsWithCtrl; ++V)
      Remap(G.EntryOfVarTab[V]);
    for (std::uint32_t I = 0; I != G.NumInstrs; ++I)
      Remap(G.DefNodeOfInstr[I]);
    for (std::uint32_t S = 0, NS = G.UseOff[G.NumInstrs]; S != NS; ++S)
      Remap(G.UseSlots[S]);
    for (std::size_t I = 0,
                     N = std::size_t(F.numBlocks()) * NumVarsWithCtrl;
         I != N; ++I) {
      Remap(G.SwitchTab[I]);
      Remap(G.MergeTab[I]);
    }
    for (std::size_t I = 0,
                     N = std::size_t(NumVarsWithCtrl) * E.size();
         I != N; ++I)
      Remap(G.DepTab[I].Node);
  }

  /// The final CSR adjacency over the compacted graph: per node, edge ids
  /// ascending (creation order), matching the old per-node push order.
  void buildAdjacency() {
    const unsigned NN = G.numNodes();
    const unsigned NE = G.numEdges();
    G.OutOff = G.Pool.allocateFilled<std::uint32_t>(NN + 1, 0);
    G.InOff = G.Pool.allocateFilled<std::uint32_t>(NN + 1, 0);
    for (unsigned Id = 0; Id != NE; ++Id) {
      ++G.OutOff[G.Edges[Id].Src + 1];
      ++G.InOff[G.Edges[Id].Dst + 1];
    }
    for (unsigned N = 0; N != NN; ++N) {
      G.OutOff[N + 1] += G.OutOff[N];
      G.InOff[N + 1] += G.InOff[N];
    }
    G.OutIdx = G.Pool.allocateArray<std::uint32_t>(NE);
    G.InIdx = G.Pool.allocateArray<std::uint32_t>(NE);
    std::vector<std::uint32_t> OutFill(G.OutOff, G.OutOff + NN);
    std::vector<std::uint32_t> InFill(G.InOff, G.InOff + NN);
    for (unsigned Id = 0; Id != NE; ++Id) {
      G.OutIdx[OutFill[G.Edges[Id].Src]++] = Id;
      G.InIdx[InFill[G.Edges[Id].Dst]++] = Id;
    }
  }
};

DepFlowGraph DepFlowGraph::build(Function &F, const CFGEdges &E,
                                 BypassMode Mode) {
  DFGBuilder B(F, E, Mode);
  return B.run();
}

DepFlowGraph DepFlowGraph::build(Function &F, const CFGEdges &E,
                                 const ProgramStructureTree &PST) {
  DFGBuilder B(F, E, BypassMode::SESE, &PST);
  return B.run();
}

DepFlowGraph DepFlowGraph::build(Function &F, BypassMode Mode) {
  F.recomputePreds();
  CFGEdges E(F);
  return build(F, E, Mode);
}

DepFlowGraph::EdgeIdRange DepFlowGraph::edgesOfVar(VarId V) const {
  struct ByVar {
    bool operator()(const Edge &Ed, VarId V) const { return Ed.Var < V; }
    bool operator()(VarId V, const Edge &Ed) const { return V < Ed.Var; }
  };
  auto [Lo, Hi] = std::equal_range(Edges.begin(), Edges.end(), V, ByVar{});
  return {unsigned(Lo - Edges.begin()), unsigned(Hi - Edges.begin())};
}

std::vector<unsigned> DepFlowGraph::multiedge(unsigned NodeId,
                                              unsigned Port) const {
  std::vector<unsigned> Result;
  for (unsigned EId : outEdges(NodeId))
    if (Edges[EId].SrcPort == Port)
      Result.push_back(EId);
  return Result;
}

int DepFlowGraph::useNode(const Instruction *I, unsigned OpIdx) const {
  int Idx = instrIndex(I);
  if (Idx < 0)
    return -1;
  std::uint32_t Width = UseOff[Idx + 1] - UseOff[Idx];
  if (OpIdx >= Width)
    return -1;
  return UseSlots[UseOff[Idx] + OpIdx];
}

std::string DepFlowGraph::nodeLabel(const Function &F, unsigned NodeId) const {
  const Node N = node(NodeId);
  std::string Var =
      isControl(N.Var) ? std::string("ctrl") : F.varName(N.Var);
  switch (N.Kind) {
  case NodeKind::Entry:
    return "entry(" + Var + ")";
  case NodeKind::Def:
    return "def(" + Var + ")@" + N.Block->label();
  case NodeKind::Use:
    return "use(" + Var + ")@" + N.Block->label() + "#" +
           std::to_string(N.OpIdx);
  case NodeKind::Switch:
    return "switch(" + Var + ")@" + N.Block->label();
  case NodeKind::Merge:
    return "merge(" + Var + ")@" + N.Block->label();
  }
  depflow_unreachable("unknown DFG node kind");
}

std::string DepFlowGraph::toDot(const Function &F) const {
  std::string Out = "digraph dfg {\n  node [shape=box, fontsize=10];\n";
  for (unsigned N = 0; N != numNodes(); ++N)
    Out += "  n" + std::to_string(N) + " [label=\"" + nodeLabel(F, N) +
           "\"];\n";
  for (const Edge &Ed : Edges) {
    Out += "  n" + std::to_string(Ed.Src) + " -> n" + std::to_string(Ed.Dst);
    if (Ed.SrcPort || Ed.DstPort)
      Out += " [label=\"" + std::to_string(Ed.SrcPort) + ":" +
             std::to_string(Ed.DstPort) + "\"]";
    Out += ";\n";
  }
  return Out + "}\n";
}
