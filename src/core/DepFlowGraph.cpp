//===- core/DepFlowGraph.cpp - The dependence flow graph ------------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "core/DepFlowGraph.h"

#include "structure/CycleEquivalence.h"
#include "support/Statistic.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <span>

using namespace depflow;

// Telemetry for the paper's O(E·V) construction claim. The counters
// describe the paper's construction — the base-level graph, its bypass
// redirects (one per region exit edge per variable the region does not
// assign) and what dead-edge removal drops from it — which the builder
// counts exactly without building it (it creates only the live graph).
// bench_dfg_construction fits the base edge count against E·(V+1), an
// upper bound on the routing work. The bypass histogram records how much
// switch/merge traffic each SESE region's redirect short-circuits.
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
///
/// The paper's construction (Section 3.2) routes every variable through
/// every block (the base level), bypasses SESE regions, and then removes
/// dead edges: a node survives iff a use is reachable from it, i.e. iff
/// the value it produces is live. The builder computes that liveness first
/// and then creates exactly the nodes and edges the removal would keep, in
/// the order the base level creates them, so the graph is identical node
/// for node and edge for edge to base level plus dead-edge removal without
/// materializing the base level.
class depflow::DFGBuilder {
  /// A dependence value's identity while routing: a node output port.
  using Source = DepFlowGraph::DepSlot;
  static constexpr Source NoSource = {-1, 0};

  Function &F;
  const CFGEdges &E;
  DepFlowGraph::BypassMode Mode;
  DepFlowGraph G;

  unsigned NumVarsWithCtrl;
  std::size_t Words = 0; // 64-bit words per set over the variables
  const ProgramStructureTree *PST = nullptr;  // Borrowed (caller's cache)...
  std::unique_ptr<ProgramStructureTree> OwnedPST; // ...or built here.
  /// The build's temporaries outside the routing scratch below, carved
  /// from one block sized once the PST is known: RPO, InstrBase,
  /// RegionDefs and the scratch of the RPO search and the region order.
  ScratchBlock Temps;
  std::uint64_t *RegionDefs = nullptr; // flat [region][word] def bitsets
  /// Block ids in reverse postorder, each tagged with its merge/switch
  /// flags and (SESE bypass only) whether one of its out-edges is a
  /// region's exit edge, so the per-variable loops read no block state for
  /// them.
  std::span<unsigned> RPO;
  std::uint32_t *InstrBase = nullptr; // block id -> first instr index

  static constexpr unsigned MergeBit = 1u << 31;
  static constexpr unsigned SwitchBit = 1u << 30;
  static constexpr unsigned ExitBit = 1u << 29;
  static constexpr unsigned BlockIdMask = ExitBit - 1;

  /// Exact sizes of the paper's base-level graph (counted, never built),
  /// the tap counts, and the exact live sizes (read off the liveness sets
  /// before routing).
  std::uint32_t NumBaseNodes = 0;
  std::uint32_t NumBaseEdges = 0;
  std::uint32_t NumUses = 0;
  std::uint32_t NumTaps = 0;
  std::uint32_t NumLiveNodes = 0;
  std::uint32_t NumLiveEdges = 0;
  std::uint32_t NumLiveSwitches = 0;
  std::uint32_t NumLiveMerges = 0;
  /// Live (CFG edge, variable) pairs: the size of the dependence map.
  std::uint32_t NumLiveDeps = 0;
  /// Canonical instructions and their use slots (operands + control use).
  std::uint32_t NumInstrs = 0;
  std::uint32_t NumUseSlots = 0;
  /// Defs whose value a later use in the same block reads.
  std::uint32_t NumDefsUsedLocally = 0;

  /// Routing scratch, carved from one block at its exact size.
  ///
  /// Taps: a tap is (instruction index, code), where code is the operand
  /// index of a use (numOperands() for the control use) or DefTap for the
  /// def; variable V's taps are [TapOff[V], TapOff[V+1]), in RPO block
  /// order and instruction order within a block.
  ///
  /// Liveness, each a `Words`-word bitset over the variables and the
  /// control variable: per block id, Gen (used before any def in the
  /// block), Kill (defined in the block), DefEnd (the block's last tap is
  /// a def), LiveIn and LiveOut; per CFG edge, LiveEdge (the value crossing
  /// the edge reaches a use). LiveOut covers only the out-edges that are
  /// not bypass-redirected: it is the liveness of the block's own outgoing
  /// value.
  ///
  /// Routing plan, the same facts transposed to one `RPOWords`-word bitset
  /// over RPO positions per variable, so routing V touches only its own
  /// blocks: VisitRows (blocks holding V's taps, a live incoming value, or
  /// a live out-edge), MergeRows and SwitchRows (the live merges and
  /// switches).
  ///
  /// List cursors: per block id, the next free slot of its switch and
  /// merge lists; per CFG edge, of its dependence list. `planRouting()`
  /// counts each list's length into them, and `carveStorage()` turns the
  /// counts into the lists' offsets. Routing appends one variable at a
  /// time, so the entry before a cursor is the routed variable's whenever
  /// it has one there; `mergeOf`, `switchOf` and `depOf` assert that.
  ScratchBlock Scratch;
  std::uint32_t *TapOff = nullptr;
  std::uint32_t *TapFill = nullptr;
  std::uint32_t *TapInst = nullptr;
  std::int32_t *TapCode = nullptr;
  std::uint64_t *Gen = nullptr;
  std::uint64_t *Kill = nullptr;
  std::uint64_t *DefEnd = nullptr;
  std::uint64_t *LiveIn = nullptr;
  std::uint64_t *LiveOut = nullptr;
  std::uint64_t *LiveEdge = nullptr;
  std::size_t RPOWords = 0;
  std::uint64_t *VisitRows = nullptr;
  std::uint64_t *MergeRows = nullptr;
  std::uint64_t *SwitchRows = nullptr;
  std::uint32_t *MergeFill = nullptr;
  std::uint32_t *SwitchFill = nullptr;
  std::uint32_t *DepFill = nullptr;
  static constexpr std::int32_t DefTap = -1;

public:
  DFGBuilder(Function &F, const CFGEdges &E, DepFlowGraph::BypassMode Mode,
             const ProgramStructureTree *SharedPST = nullptr)
      : F(F), E(E), Mode(Mode), PST(SharedPST) {}

  DepFlowGraph run() {
    assert(F.exit() && "DFG construction requires a verified function");
    assert(E.inEdges(F.entry()).empty() && "the entry block has no preds");
    G.ControlVar = F.numVars();
    NumVarsWithCtrl = F.numVars() + 1;
    Words = (NumVarsWithCtrl + 63) / 64;

    const bool Bypass = Mode == DepFlowGraph::BypassMode::SESE;
    if (Bypass && !PST) {
      CycleEquivalence CE = cycleEquivalenceClasses(F, E);
      OwnedPST = std::make_unique<ProgramStructureTree>(F, E, CE);
      PST = OwnedPST.get();
    }
    carveTemps();

    numberInstructions();
    computeRPO();
    unsigned Redirects = 0;
    if (Bypass) {
      computeRegionDefs();
      Redirects = markRegionExits();
    }
    assert(Temps.remaining() == 0 && "temporaries block sized exactly");

    countBase();
    carveScratch();
    collectTaps();
    computeLiveness();
    planRouting();
    for (VarId V = 0; V != NumVarsWithCtrl; ++V)
      routeVariable(V);
    assert(G.numNodes() == NumLiveNodes && G.numEdges() == NumLiveEdges &&
           "live counts predicted exactly");
    Scratch = ScratchBlock();
    buildAdjacency();

    G.BuildStats.EdgesBeforePrune = NumBaseEdges;
    G.BuildStats.NodesBeforePrune = NumBaseNodes;
    G.BuildStats.BypassRedirects = Redirects;
    NumDFGBaseEdges += NumBaseEdges;
    NumDFGBypassRedirects += Redirects;
    NumDFGDeadEdgesRemoved += NumBaseEdges - G.numEdges();
    NumDFGDeadNodesRemoved += NumBaseNodes - G.numNodes();
    return std::move(G);
  }

private:
  /// Sizes the temporaries block: RPO and InstrBase per block, the RPO
  /// search's stack and seen flags, and (SESE bypass only) RegionDefs and
  /// the region order.
  void carveTemps() {
    const std::size_t NB = F.numBlocks();
    const std::size_t NR = PST ? PST->numRegions() : 0;
    using U32 = std::uint32_t;
    Temps = ScratchBlock(
        2 * ScratchBlock::bytesFor<U32>(NB) +
        ScratchBlock::bytesFor<SearchFrame>(NB) +
        ScratchBlock::bytesFor<bool>(NB) +
        ScratchBlock::bytesFor<std::uint64_t>(NR * Words) +
        ScratchBlock::bytesFor<U32>(NR));
    InstrBase = Temps.take<U32>(NB);
  }

  /// Numbers instructions canonically (function order): each block's
  /// first instruction index, and the instruction and use-slot counts
  /// that size the graph's per-instruction tables.
  void numberInstructions() {
    for (const auto &BB : F.blocks()) {
      InstrBase[BB->id()] = NumInstrs;
      for (const auto &I : BB->instructions()) {
        ++NumInstrs;
        NumUseSlots += I->numOperands() + 1;
      }
    }
  }

  struct SearchFrame {
    std::uint32_t Block;
    std::uint32_t Cursor; // next out edge to examine
  };

  void computeRPO() {
    // Successor order is the out-edge order of E, so traversing edge ids
    // avoids materializing successor vectors per block. The postorder is
    // written into the RPO array and reversed in place.
    unsigned *Order = Temps.take<unsigned>(F.numBlocks());
    SearchFrame *Stack = Temps.take<SearchFrame>(F.numBlocks());
    bool *Seen = Temps.takeFilled<bool>(F.numBlocks(), false);
    std::size_t NumDone = 0, Top = 0;
    Stack[Top++] = {F.entry()->id(), 0};
    Seen[F.entry()->id()] = true;
    while (Top) {
      auto &[B, Cursor] = Stack[Top - 1];
      std::span<const std::uint32_t> Out = E.outEdges(F.block(B));
      if (Cursor < Out.size()) {
        const unsigned Next = E.edge(Out[Cursor++]).To->id();
        if (!Seen[Next]) {
          Seen[Next] = true;
          Stack[Top++] = {Next, 0};
        }
      } else {
        Order[NumDone++] = B;
        --Top;
      }
    }
    RPO = {Order, NumDone};
    std::reverse(RPO.begin(), RPO.end());
    for (unsigned &R : RPO) {
      assert(R <= BlockIdMask && "block id collides with the RPO flag bits");
      const BasicBlock *BB = F.block(R);
      if (BB->isMerge())
        R |= MergeBit;
      if (BB->isSwitch())
        R |= SwitchBit;
    }
  }

  void computeRegionDefs() {
    const unsigned NR = PST->numRegions();
    RegionDefs = Temps.takeFilled<std::uint64_t>(std::size_t(NR) * Words, 0);
    for (const auto &BB : F.blocks()) {
      std::uint64_t *Defs =
          RegionDefs + PST->regionOfBlock(BB->id()) * Words;
      for (const auto &I : BB->instructions())
        if (const auto *D = dyn_cast<DefInst>(I.get()))
          Defs[D->def() / 64] |= std::uint64_t(1) << (D->def() % 64);
    }
    // Aggregate defs inside-out (children before parents): child region ids
    // are always larger than the parent's only in discovery order, so walk
    // regions by decreasing depth instead.
    unsigned *Order = Temps.take<unsigned>(NR);
    for (unsigned R = 0; R != NR; ++R)
      Order[R] = R;
    std::sort(Order, Order + NR, [&](unsigned A, unsigned B) {
      return PST->region(A).Depth > PST->region(B).Depth;
    });
    for (unsigned R : std::span<const unsigned>(Order, NR))
      if (int P = PST->region(R).Parent; P >= 0)
        for (std::size_t W = 0; W != Words; ++W)
          RegionDefs[unsigned(P) * Words + W] |= RegionDefs[R * Words + W];
  }

  /// Flags the blocks that own a region exit edge and counts the bypass
  /// redirects: the exit edge of canonical region R carries its entry
  /// edge's value for every variable R does not assign (always for the
  /// control variable). Region 0 is the whole function and never closes,
  /// so the histogram covers only canonical regions.
  unsigned markRegionExits() {
    for (unsigned &R : RPO)
      for (unsigned EId : E.outEdges(F.block(R & BlockIdMask)))
        if (PST->regionClosedBy(EId) >= 0)
          R |= ExitBit;
    unsigned Total = 0;
    for (unsigned R = 1; R < PST->numRegions(); ++R) {
      assert(PST->regionClosedBy(unsigned(PST->region(R).ExitEdge)) ==
                 int(R) &&
             "one exit edge closes each canonical region");
      unsigned Assigned = 0;
      for (std::size_t W = 0; W != Words; ++W)
        Assigned += unsigned(std::popcount(RegionDefs[R * Words + W]));
      unsigned Bypassed = NumVarsWithCtrl - Assigned;
      HistDFGBypassPerRegion.sample(Bypassed);
      Total += Bypassed;
    }
    return Total;
  }

  /// Counts the paper's base-level graph exactly (one entry per variable,
  /// one merge/switch per join/branch per variable, one use per variable
  /// operand, one def per assignment) and the taps. The base level is only
  /// counted, for the statistics; it is never built.
  void countBase() {
    std::uint32_t MergeBlocks = 0, SwitchBlocks = 0, MergeIndeg = 0;
    std::uint32_t VarUses = 0, CtrlUses = 0, Defs = 0;
    for (unsigned R : RPO) {
      const BasicBlock *BB = F.block(R & BlockIdMask);
      if (R & MergeBit) {
        ++MergeBlocks;
        MergeIndeg += std::uint32_t(E.inEdges(BB).size());
      }
      if (R & SwitchBit)
        ++SwitchBlocks;
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
    NumUses = VarUses + CtrlUses;
    NumTaps = NumUses + Defs;
    NumBaseNodes = NumVarsWithCtrl * (1 + MergeBlocks + SwitchBlocks) +
                   NumUses + Defs;
    NumBaseEdges = NumUses + NumVarsWithCtrl * (SwitchBlocks + MergeIndeg);
  }

  /// Carves the taps, the liveness sets, the routing plan and the list
  /// cursors from one block sized exactly.
  void carveScratch() {
    const std::size_t NB = F.numBlocks(), NE = E.size();
    const std::size_t BlockWords = NB * Words;
    RPOWords = (RPO.size() + 63) / 64;
    const std::size_t RowWords = std::size_t(NumVarsWithCtrl) * RPOWords;
    const std::size_t SetWords = 5 * BlockWords + NE * Words + 3 * RowWords;
    using U32 = std::uint32_t;
    Scratch = ScratchBlock(
        ScratchBlock::bytesFor<std::uint64_t>(SetWords) +
        ScratchBlock::bytesFor<U32>(NumVarsWithCtrl + 1) +
        ScratchBlock::bytesFor<U32>(NumVarsWithCtrl) +
        ScratchBlock::bytesFor<U32>(NumTaps) +
        ScratchBlock::bytesFor<std::int32_t>(NumTaps) +
        2 * ScratchBlock::bytesFor<U32>(NB) + ScratchBlock::bytesFor<U32>(NE));
    std::uint64_t *Sets = Scratch.takeFilled<std::uint64_t>(SetWords, 0);
    Gen = Sets;
    Kill = Gen + BlockWords;
    DefEnd = Kill + BlockWords;
    LiveIn = DefEnd + BlockWords;
    LiveOut = LiveIn + BlockWords;
    LiveEdge = LiveOut + BlockWords;
    VisitRows = LiveEdge + NE * Words;
    MergeRows = VisitRows + RowWords;
    SwitchRows = MergeRows + RowWords;
    TapOff = Scratch.takeFilled<U32>(NumVarsWithCtrl + 1, 0);
    TapFill = Scratch.take<U32>(NumVarsWithCtrl);
    TapInst = Scratch.take<U32>(NumTaps);
    TapCode = Scratch.take<std::int32_t>(NumTaps);
    MergeFill = Scratch.take<U32>(NB);
    SwitchFill = Scratch.take<U32>(NB);
    DepFill = Scratch.take<U32>(NE);
    assert(Scratch.remaining() == 0 && "routing scratch sized exactly");
  }

  /// Buckets every variable's taps with one stable counting sort over the
  /// instructions in RPO block order, and records each block's Gen, Kill
  /// and DefEnd on the way. Each instruction contributes its variable uses
  /// in operand order, then the control use (Section 3.3: statements with
  /// no variable operands; also terminators carrying only immediates, so
  /// that dead code reporting covers their operands uniformly), then its
  /// def.
  void collectTaps() {
    auto ForEachTap = [&](auto Visit) {
      for (unsigned R : RPO) {
        const unsigned B = R & BlockIdMask;
        const BasicBlock *BB = F.block(B);
        std::uint32_t InstIdx = InstrBase[B];
        for (const auto &IPtr : BB->instructions()) {
          const Instruction *I = IPtr.get();
          bool HasVarOperand = false;
          for (unsigned OpIdx = 0, N = I->numOperands(); OpIdx != N; ++OpIdx)
            if (const Operand &Op = I->operand(OpIdx); Op.isVar()) {
              HasVarOperand = true;
              Visit(B, Op.var(), InstIdx, std::int32_t(OpIdx));
            }
          if (!HasVarOperand && (isa<DefInst>(I) || I->numOperands() > 0))
            Visit(B, G.ControlVar, InstIdx, std::int32_t(I->numOperands()));
          if (const auto *D = dyn_cast<DefInst>(I))
            Visit(B, D->def(), InstIdx, DefTap);
          ++InstIdx;
        }
      }
    };
    ForEachTap([&](unsigned, VarId V, std::uint32_t, std::int32_t) {
      ++TapOff[V + 1];
    });
    for (VarId V = 0; V != NumVarsWithCtrl; ++V) {
      TapOff[V + 1] += TapOff[V];
      TapFill[V] = TapOff[V];
    }
    ForEachTap([&](unsigned B, VarId V, std::uint32_t InstIdx,
                   std::int32_t Code) {
      std::uint32_t K = TapFill[V]++;
      TapInst[K] = InstIdx;
      TapCode[K] = Code;
      const std::size_t W = B * Words + V / 64;
      const std::uint64_t Bit = std::uint64_t(1) << (V % 64);
      if (Code == DefTap) {
        Kill[W] |= Bit;
        DefEnd[W] |= Bit;
        return;
      }
      if (!(Kill[W] & Bit))
        Gen[W] |= Bit;
      if (DefEnd[W] & Bit) {
        ++NumDefsUsedLocally;
        DefEnd[W] &= ~Bit;
      }
    });
  }

  /// Liveness under bypass: one backward fixpoint over the CFG in
  /// postorder, word-parallel over every variable and the control
  /// variable. The value on edge e reaches a use if V is live into e's
  /// target, or (the bypass redirect) if e is the entry edge of a region R
  /// that does not assign V and V is live on R's exit edge. A block's own
  /// outgoing value feeds only its out-edges that are not redirected.
  void computeLiveness() {
    const std::size_t W = Words;
    const bool Bypass = Mode == DepFlowGraph::BypassMode::SESE;
    for (bool Changed = true; Changed;) {
      Changed = false;
      for (auto It = RPO.rbegin(); It != RPO.rend(); ++It) {
        const unsigned B = *It & BlockIdMask;
        std::uint64_t *Out = LiveOut + B * W;
        std::fill(Out, Out + W, 0);
        for (unsigned EId : E.outEdges(F.block(B))) {
          std::uint64_t *Live = LiveEdge + std::size_t(EId) * W;
          const std::uint64_t *ToIn =
              LiveIn + std::size_t(E.edge(EId).To->id()) * W;
          const std::uint64_t *ExitLive = nullptr, *OpenedDefs = nullptr;
          const std::uint64_t *ClosedDefs = nullptr;
          if (Bypass) {
            if (int R = PST->regionOpenedBy(EId); R >= 0) {
              ExitLive = LiveEdge +
                         std::size_t(PST->region(unsigned(R)).ExitEdge) * W;
              OpenedDefs = RegionDefs + unsigned(R) * W;
            }
            if (int R = PST->regionClosedBy(EId); R >= 0)
              ClosedDefs = RegionDefs + unsigned(R) * W;
          }
          for (std::size_t I = 0; I != W; ++I) {
            std::uint64_t L = ToIn[I];
            if (ExitLive)
              L |= ExitLive[I] & ~OpenedDefs[I];
            if (L != Live[I]) {
              Live[I] = L;
              Changed = true;
            }
            // An exit edge is redirected for exactly the variables its
            // region does not assign.
            Out[I] |= ClosedDefs ? L & ClosedDefs[I] : L;
          }
        }
        const std::uint64_t *BGen = Gen + B * W, *BKill = Kill + B * W;
        std::uint64_t *In = LiveIn + B * W;
        for (std::size_t I = 0; I != W; ++I) {
          std::uint64_t L = BGen[I] | (Out[I] & ~BKill[I]);
          if (L != In[I]) {
            In[I] = L;
            Changed = true;
          }
        }
      }
    }
  }

  /// Reads the routing plan off the liveness sets: transposes them into
  /// the per-variable rows, counts the live graph exactly (and each
  /// block's switch and merge list and each CFG edge's dependence list),
  /// and carves the graph's storage at that size. An entry node and each
  /// merge exist where V is live in, a switch where V is live out, every
  /// use, and a def when a use in its block reads it or it is its block's
  /// last def and V is live out. Every use and every live switch or merge
  /// has one in-edge per input. A CFG edge's dependence list has one entry
  /// per variable live on it.
  void planRouting() {
    std::uint32_t Nodes = NumUses + NumDefsUsedLocally, Edges = NumUses;
    const unsigned EntryId = F.entry()->id();
    for (std::size_t P = 0; P != RPO.size(); ++P) {
      const unsigned R = RPO[P], B = R & BlockIdMask;
      const BasicBlock *BB = F.block(B);
      const std::uint32_t Preds = std::uint32_t(E.inEdges(BB).size());
      std::uint32_t BlockMerges = 0, BlockSwitches = 0;
      for (std::size_t W = 0, I = B * Words; W != Words; ++W, ++I) {
        const std::uint64_t In = LiveIn[I], Out = LiveOut[I];
        const std::uint64_t Merges = (R & MergeBit) ? In : 0;
        const std::uint64_t Switches = (R & SwitchBit) ? Out : 0;
        std::uint64_t Visit = In | Kill[I];
        if (R & ExitBit)
          for (unsigned EId : E.outEdges(BB))
            Visit |= LiveEdge[std::size_t(EId) * Words + W];
        Nodes += std::uint32_t(std::popcount(DefEnd[I] & Out));
        if (B == EntryId)
          Nodes += std::uint32_t(std::popcount(In));
        BlockMerges += std::uint32_t(std::popcount(Merges));
        BlockSwitches += std::uint32_t(std::popcount(Switches));
        scatter(VisitRows, W, Visit, P);
        scatter(MergeRows, W, Merges, P);
        scatter(SwitchRows, W, Switches, P);
      }
      MergeFill[B] = BlockMerges;
      SwitchFill[B] = BlockSwitches;
      NumLiveMerges += BlockMerges;
      NumLiveSwitches += BlockSwitches;
      Edges += BlockMerges * Preds + BlockSwitches;
    }
    for (std::size_t EId = 0; EId != E.size(); ++EId) {
      std::uint32_t Live = 0;
      for (std::size_t W = 0; W != Words; ++W)
        Live += std::uint32_t(std::popcount(LiveEdge[EId * Words + W]));
      DepFill[EId] = Live;
      NumLiveDeps += Live;
    }
    NumLiveNodes = Nodes + NumLiveMerges + NumLiveSwitches;
    NumLiveEdges = Edges;
    carveStorage();
  }

  /// Carves every array of the graph from one block sized exactly, lays
  /// out the canonical numbering and the per-instruction tables (def node,
  /// use-slot CSR with one slot per operand plus one for the control use,
  /// the sorted pointer index), and the offsets of the per-block and
  /// per-edge lists, whose cursors start at them.
  void carveStorage() {
    using U32 = std::uint32_t;
    using I32 = std::int32_t;
    const std::size_t N = NumLiveNodes, NE = NumLiveEdges;
    const std::size_t NB = F.numBlocks(), NC = E.size();
    const std::size_t NV = NumVarsWithCtrl;
    G.Storage = ScratchBlock(
        ScratchBlock::bytesFor<std::uint8_t>(N) +
        ScratchBlock::bytesFor<VarId>(N) + 2 * ScratchBlock::bytesFor<I32>(N) +
        ScratchBlock::bytesFor<U32>(N) +
        ScratchBlock::bytesFor<DepFlowGraph::Edge>(NE) +
        2 * ScratchBlock::bytesFor<U32>(N + 1) +
        2 * ScratchBlock::bytesFor<U32>(NE) +
        ScratchBlock::bytesFor<Instruction *>(NumInstrs) +
        ScratchBlock::bytesFor<BasicBlock *>(NB) +
        ScratchBlock::bytesFor<U32>(NB) +
        ScratchBlock::bytesFor<DepFlowGraph::InstKey>(NumInstrs) +
        ScratchBlock::bytesFor<I32>(NV) +
        ScratchBlock::bytesFor<I32>(NumInstrs) +
        ScratchBlock::bytesFor<U32>(NumInstrs + 1) +
        ScratchBlock::bytesFor<I32>(NumUseSlots) +
        2 * ScratchBlock::bytesFor<U32>(NB + 1) +
        ScratchBlock::bytesFor<U32>(NumLiveSwitches) +
        ScratchBlock::bytesFor<U32>(NumLiveMerges) +
        ScratchBlock::bytesFor<U32>(NC + 1) +
        ScratchBlock::bytesFor<DepFlowGraph::DepEntry>(NumLiveDeps));
    ScratchBlock &S = G.Storage;
    G.NodeKinds = S.take<std::uint8_t>(N);
    G.NodeVars = S.take<VarId>(N);
    G.NodeInst = S.take<I32>(N);
    G.NodeOp = S.take<U32>(N);
    G.NodeBlock = S.take<I32>(N);
    G.Edges = S.take<DepFlowGraph::Edge>(NE);
    G.OutOff = S.takeFilled<U32>(N + 1, 0);
    G.InOff = S.takeFilled<U32>(N + 1, 0);
    G.OutIdx = S.take<U32>(NE);
    G.InIdx = S.take<U32>(NE);
    G.InstrByIdx = S.take<Instruction *>(NumInstrs);
    G.BlockByIdx = S.take<BasicBlock *>(NB);
    G.BlockFirstInstr = S.take<U32>(NB);
    G.InstIndex = S.take<DepFlowGraph::InstKey>(NumInstrs);
    G.EntryOfVarTab = S.takeFilled<I32>(NV, -1);
    G.DefNodeOfInstr = S.takeFilled<I32>(NumInstrs, -1);
    G.UseOff = S.take<U32>(NumInstrs + 1);
    G.UseSlots = S.takeFilled<I32>(NumUseSlots, -1);
    G.SwitchOff = S.take<U32>(NB + 1);
    G.MergeOff = S.take<U32>(NB + 1);
    G.SwitchIds = S.take<U32>(NumLiveSwitches);
    G.MergeIds = S.take<U32>(NumLiveMerges);
    G.DepOff = S.take<U32>(NC + 1);
    G.Deps = S.take<DepFlowGraph::DepEntry>(NumLiveDeps);
    assert(S.remaining() == 0 && "graph storage sized exactly");

    G.NumInstrs = NumInstrs;
    std::copy_n(InstrBase, NB, G.BlockFirstInstr);
    std::uint32_t Idx = 0, Slot = 0;
    for (const auto &BB : F.blocks()) {
      G.BlockByIdx[BB->id()] = BB.get();
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

    startLists(MergeFill, G.MergeOff, NB);
    startLists(SwitchFill, G.SwitchOff, NB);
    startLists(DepFill, G.DepOff, NC);
  }

  /// Turns the \p N list lengths in \p Fill into the offsets \p Off
  /// (N + 1 entries) and points each cursor at its list's start.
  static void startLists(std::uint32_t *Fill, std::uint32_t *Off,
                         std::size_t N) {
    Off[0] = 0;
    for (std::size_t I = 0; I != N; ++I) {
      Off[I + 1] = Off[I] + Fill[I];
      Fill[I] = Off[I];
    }
  }

  /// Sets RPO position \p P in the row of every variable of word \p W
  /// whose bit is set in \p Bits.
  void scatter(std::uint64_t *Rows, std::size_t W, std::uint64_t Bits,
               std::size_t P) {
    const std::uint64_t Bit = std::uint64_t(1) << (P % 64);
    for (; Bits; Bits &= Bits - 1) {
      const std::size_t V = W * 64 + std::size_t(std::countr_zero(Bits));
      Rows[V * RPOWords + P / 64] |= Bit;
    }
  }

  /// Calls \p Visit with the (flagged) RPO entry of each position set in
  /// \p Row, in RPO order.
  template <typename Fn>
  void forEachBlock(const std::uint64_t *Row, Fn Visit) const {
    for (std::size_t W = 0; W != RPOWords; ++W)
      for (std::uint64_t Bits = Row[W]; Bits; Bits &= Bits - 1)
        Visit(RPO[W * 64 + std::size_t(std::countr_zero(Bits))]);
  }

  unsigned makeNode(DepFlowGraph::NodeKind Kind, VarId V,
                    std::int32_t InstIdx, std::uint32_t OpIdx,
                    std::int32_t BlockId) {
    assert(G.NumNodes < NumLiveNodes && "live node count predicted exactly");
    const unsigned Id = G.NumNodes++;
    G.NodeKinds[Id] = std::uint8_t(Kind);
    G.NodeVars[Id] = V;
    G.NodeInst[Id] = InstIdx;
    G.NodeOp[Id] = OpIdx;
    G.NodeBlock[Id] = BlockId;
    return Id;
  }

  void addEdge(Source Src, unsigned Dst, VarId V, std::uint16_t DstPort = 0) {
    assert(Src.Node >= 0 && "dependence source must be live");
    assert(G.NumEdges < NumLiveEdges && "live edge count predicted exactly");
    G.Edges[G.NumEdges++] = {unsigned(Src.Node), Dst, V, Src.Port, DstPort};
  }

  /// True if canonical region \p R contains no assignment to \p V (the
  /// bypass condition; the control variable is only assigned at entry, so
  /// every region is bypassable for it — its uses are still fed through
  /// the interior routing, which is what makes them control edges).
  bool regionBypassable(unsigned R, VarId V) const {
    return !(RegionDefs[R * Words + V / 64] >> (V % 64) & 1);
  }

  /// \p V's merge at block \p B, \p V's switch there, and the source of
  /// \p V's value on CFG edge \p EId: each the last entry of its list so
  /// far, which must exist and carry \p V.
  unsigned mergeOf(unsigned B, VarId V) const {
    assert(MergeFill[B] > G.MergeOff[B] &&
           G.NodeVars[G.MergeIds[MergeFill[B] - 1]] == V &&
           "the variable's merge is created before it is read");
    return G.MergeIds[MergeFill[B] - 1];
  }
  unsigned switchOf(unsigned B, VarId V) const {
    assert(SwitchFill[B] > G.SwitchOff[B] &&
           G.NodeVars[G.SwitchIds[SwitchFill[B] - 1]] == V &&
           "the variable's switch is created before it is read");
    return G.SwitchIds[SwitchFill[B] - 1];
  }
  Source depOf(unsigned EId, VarId V) const {
    assert(DepFill[EId] > G.DepOff[EId] &&
           G.Deps[DepFill[EId] - 1].Var == V &&
           "the value on a live CFG edge is routed before it is read");
    return G.Deps[DepFill[EId] - 1].Src;
  }
  void setDep(unsigned EId, VarId V, Source Src) {
    assert(Src.Node >= 0 && "a live CFG edge carries a value");
    assert(DepFill[EId] < G.DepOff[EId + 1] && "dependence list sized exactly");
    G.Deps[DepFill[EId]++] = {V, Src};
  }

  /// Routes \p V, creating only live nodes and edges, in base-level order:
  /// the entry node, merges and switches in RPO, then each block's taps
  /// and switch input in RPO, then the merge inputs. V's value is recorded
  /// on exactly the CFG edges where V is live, and read only there.
  void routeVariable(VarId V) {
    const std::size_t Word = V / 64;
    const std::uint64_t Bit = std::uint64_t(1) << (V % 64);
    auto IsLive = [&](const std::uint64_t *Set, unsigned Idx) {
      return (Set[Idx * Words + Word] & Bit) != 0;
    };
    const unsigned EntryId = F.entry()->id();

    Source EntryValue = NoSource;
    if (IsLive(LiveIn, EntryId)) {
      EntryValue.Node = std::int32_t(makeNode(DepFlowGraph::NodeKind::Entry,
                                              V, -1, 0,
                                              std::int32_t(EntryId)));
      G.EntryOfVarTab[V] = EntryValue.Node;
    }

    // Merge and switch nodes first (the base level creates one at every
    // join/branch here; the live ones keep that relative order).
    const std::uint64_t *Merges = MergeRows + std::size_t(V) * RPOWords;
    const std::uint64_t *Switches = SwitchRows + std::size_t(V) * RPOWords;
    for (std::size_t W = 0; W != RPOWords; ++W)
      for (std::uint64_t Bits = Merges[W] | Switches[W]; Bits;
           Bits &= Bits - 1) {
        const std::size_t P = W * 64 + std::size_t(std::countr_zero(Bits));
        const unsigned B = RPO[P] & BlockIdMask;
        if (Merges[W] & Bits & -Bits)
          G.MergeIds[MergeFill[B]++] = makeNode(
              DepFlowGraph::NodeKind::Merge, V, -1, 0, std::int32_t(B));
        if (Switches[W] & Bits & -Bits)
          G.SwitchIds[SwitchFill[B]++] = makeNode(
              DepFlowGraph::NodeKind::Switch, V, -1, 0, std::int32_t(B));
      }

    // The blocks holding V's taps, a live incoming value, or a live
    // out-edge. A block with neither taps nor a live incoming value can
    // still own a live region exit edge, which carries the region entry's
    // value.
    std::uint32_t K = TapOff[V];
    const std::uint32_t KEnd = TapOff[V + 1];
    forEachBlock(VisitRows + std::size_t(V) * RPOWords, [&](unsigned R) {
      const unsigned B = R & BlockIdMask;
      const std::uint32_t First = InstrBase[B];
      const std::uint32_t Size = std::uint32_t(G.BlockByIdx[B]->size());

      // Incoming dependence.
      Source Cur = NoSource;
      if (IsLive(LiveIn, B)) {
        if (B == EntryId) {
          Cur = EntryValue;
        } else if (R & MergeBit) {
          Cur = {std::int32_t(mergeOf(B, V)), 0};
        } else {
          const auto &In = E.inEdges(G.BlockByIdx[B]);
          assert(In.size() == 1 &&
                 "non-entry block without merge has one pred");
          Cur = depOf(In[0], V); // The single pred comes first in RPO.
        }
      }

      // This block's taps (the next ones in V's list whose instruction
      // index falls in the block's range): uses read Cur, a def replaces
      // it. A def is live iff the next tap in the block is a use, or it is
      // the block's last tap and V is live out.
      for (; K != KEnd && TapInst[K] - First < Size; ++K) {
        const std::uint32_t InstIdx = TapInst[K];
        if (TapCode[K] == DefTap) {
          const bool NextInBlock =
              K + 1 != KEnd && TapInst[K + 1] - First < Size;
          if (NextInBlock ? TapCode[K + 1] != DefTap : IsLive(LiveOut, B)) {
            unsigned DefId = makeNode(DepFlowGraph::NodeKind::Def, V,
                                      std::int32_t(InstIdx), 0,
                                      std::int32_t(B));
            G.DefNodeOfInstr[InstIdx] = std::int32_t(DefId);
            Cur = {std::int32_t(DefId), 0};
          } else {
            Cur = NoSource;
          }
          continue;
        }
        const std::uint32_t OpIdx = std::uint32_t(TapCode[K]);
        unsigned UseId = makeNode(DepFlowGraph::NodeKind::Use, V,
                                  std::int32_t(InstIdx), OpIdx,
                                  std::int32_t(B));
        G.UseSlots[G.UseOff[InstIdx] + OpIdx] = std::int32_t(UseId);
        addEdge(Cur, UseId, V);
      }

      // Outgoing dependence, on the live out-edges only. The exit edge of
      // a bypassable region carries the value of its entry edge, not the
      // interior through-value.
      int S = -1;
      if ((R & SwitchBit) && IsLive(LiveOut, B)) {
        S = int(switchOf(B, V));
        addEdge(Cur, unsigned(S), V);
      }
      const auto &Out = E.outEdges(G.BlockByIdx[B]);
      for (unsigned SI = 0; SI != Out.size(); ++SI) {
        const unsigned EId = Out[SI];
        if (!IsLive(LiveEdge, EId))
          continue;
        int Closed = (R & ExitBit) ? PST->regionClosedBy(EId) : -1;
        if (Closed >= 0 && regionBypassable(unsigned(Closed), V)) {
          // The region's entry edge precedes its exit in RPO.
          setDep(EId, V,
                 depOf(unsigned(PST->region(unsigned(Closed)).EntryEdge), V));
        } else {
          setDep(EId, V,
                 (R & SwitchBit) ? Source{S, std::uint16_t(SI)} : Cur);
        }
      }
    });
    assert(K == KEnd && "every tap of V lies in a visited block");

    // Wire merges now that every live dep slot (including back edges) is
    // known.
    forEachBlock(Merges, [&](unsigned R) {
      const unsigned B = R & BlockIdMask;
      const unsigned M = mergeOf(B, V);
      const auto &In = E.inEdges(G.BlockByIdx[B]);
      for (unsigned PI = 0; PI != In.size(); ++PI)
        addEdge(depOf(In[PI], V), M, V, std::uint16_t(PI));
    });
  }

  /// The CSR adjacency: per node, edge ids ascending (creation order). The
  /// fill uses each node's start offset as its cursor, which leaves it at
  /// the next node's start; one shift restores the offsets.
  void buildAdjacency() {
    const unsigned NN = G.numNodes();
    const unsigned NE = G.numEdges();
    for (unsigned Id = 0; Id != NE; ++Id) {
      ++G.OutOff[G.Edges[Id].Src + 1];
      ++G.InOff[G.Edges[Id].Dst + 1];
    }
    for (unsigned N = 0; N != NN; ++N) {
      G.OutOff[N + 1] += G.OutOff[N];
      G.InOff[N + 1] += G.InOff[N];
    }
    for (unsigned Id = 0; Id != NE; ++Id) {
      G.OutIdx[G.OutOff[G.Edges[Id].Src]++] = Id;
      G.InIdx[G.InOff[G.Edges[Id].Dst]++] = Id;
    }
    std::copy_backward(G.OutOff, G.OutOff + NN, G.OutOff + NN + 1);
    std::copy_backward(G.InOff, G.InOff + NN, G.InOff + NN + 1);
    G.OutOff[0] = G.InOff[0] = 0;
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

int DepFlowGraph::findNodeOfVar(const std::uint32_t *First,
                                const std::uint32_t *Last, VarId V) const {
  const std::uint32_t *It =
      std::lower_bound(First, Last, V, [&](std::uint32_t N, VarId Key) {
        return NodeVars[N] < Key;
      });
  return It != Last && NodeVars[*It] == V ? int(*It) : -1;
}

std::pair<int, unsigned> DepFlowGraph::depAtEdge(unsigned EdgeId,
                                                 VarId V) const {
  const DepEntry *First = Deps + DepOff[EdgeId];
  const DepEntry *Last = Deps + DepOff[EdgeId + 1];
  const DepEntry *It = std::lower_bound(
      First, Last, V, [](const DepEntry &D, VarId Key) { return D.Var < Key; });
  if (It == Last || It->Var != V)
    return {-1, 0};
  return {It->Src.Node, unsigned(It->Src.Port)};
}

DepFlowGraph::EdgeIdRange DepFlowGraph::edgesOfVar(VarId V) const {
  struct ByVar {
    bool operator()(const Edge &Ed, VarId V) const { return Ed.Var < V; }
    bool operator()(VarId V, const Edge &Ed) const { return V < Ed.Var; }
  };
  auto [Lo, Hi] = std::equal_range(Edges, Edges + NumEdges, V, ByVar{});
  return {unsigned(Lo - Edges), unsigned(Hi - Edges)};
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
  for (const Edge &Ed : std::span(Edges, NumEdges)) {
    Out += "  n" + std::to_string(Ed.Src) + " -> n" + std::to_string(Ed.Dst);
    if (Ed.SrcPort || Ed.DstPort)
      Out += " [label=\"" + std::to_string(Ed.SrcPort) + ":" +
             std::to_string(Ed.DstPort) + "\"]";
    Out += ";\n";
  }
  return Out + "}\n";
}
