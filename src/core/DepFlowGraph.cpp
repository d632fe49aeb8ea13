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

//===----------------------------------------------------------------------===//
// The routing plan
//===----------------------------------------------------------------------===//

DFGPlan::DFGPlan(Function &F, const CFGEdges &E, DepFlowGraph::BypassMode Mode)
    : F(F), E(E) {
  if (Mode == DepFlowGraph::BypassMode::SESE) {
    CycleEquivalence CE = cycleEquivalenceClasses(F, E);
    OwnedPST = std::make_unique<ProgramStructureTree>(F, E, CE);
    PST = OwnedPST.get();
  }
  run();
}

DFGPlan::DFGPlan(Function &F, const CFGEdges &E,
                 const ProgramStructureTree &PST)
    : F(F), E(E), PST(&PST) {
  run();
}

void DFGPlan::run() {
  assert(F.exit() && "DFG construction requires a verified function");
  assert(E.inEdges(F.entry()).empty() && "the entry block has no preds");
  NumVarsWithCtrl = F.numVars() + 1;
  Words = (NumVarsWithCtrl + 63) / 64;
  carveTemps();
  numberInstructions();
  computeRPO();
  if (PST) {
    computeRegionDefs();
    markRegionExits();
  }
  assert(Temps.remaining() == 0 && "temporaries block sized exactly");
  countBase();
  carveScratch();
  collectTaps();
  computeLiveness();
  planRouting();
}

/// Sizes the temporaries block: RPO and InstrBase per block, the RPO
/// search's stack and block marks (which liveness reuses as its queue),
/// and (SESE bypass only) RegionDefs and the region order.
void DFGPlan::carveTemps() {
  const std::size_t NB = F.numBlocks();
  const std::size_t NR = PST ? PST->numRegions() : 0;
  using U32 = std::uint32_t;
  Temps = ScratchBlock(2 * ScratchBlock::bytesFor<U32>(NB) +
                       ScratchBlock::bytesFor<U32>(2 * NB) +
                       ScratchBlock::bytesFor<std::uint8_t>(NB) +
                       ScratchBlock::bytesFor<std::uint64_t>(NR * Words) +
                       ScratchBlock::bytesFor<U32>(NR));
  InstrBase = Temps.take<U32>(NB);
}

/// Numbers instructions canonically (function order): each block's first
/// instruction index, and the instruction and use-slot counts that size
/// the graph's per-instruction tables.
void DFGPlan::numberInstructions() {
  for (const auto &BB : F.blocks()) {
    InstrBase[BB->id()] = NumInstrs;
    for (const auto &I : BB->instructions()) {
      ++NumInstrs;
      NumUseSlots += I->numOperands() + 1;
    }
  }
}

void DFGPlan::computeRPO() {
  unsigned *Order = Temps.take<unsigned>(F.numBlocks());
  SearchStack = Temps.take<std::uint32_t>(2 * std::size_t(F.numBlocks()));
  Mark = Temps.takeFilled<std::uint8_t>(F.numBlocks(), Unreached);
  static_assert(Unreached == 0 && Reached == 1,
                "the search marks reached blocks 1");
  RPO = {Order, blockReversePostorder(
                    F, E, {Order, F.numBlocks()},
                    {SearchStack, 2 * std::size_t(F.numBlocks())},
                    {Mark, F.numBlocks()})};
  for (unsigned &R : RPO) {
    assert(R <= Block::IdMask && "block id collides with the RPO flag bits");
    const BasicBlock *BB = F.block(R);
    if (BB->isMerge())
      R |= Block::MergeBit;
    if (BB->isSwitch())
      R |= Block::SwitchBit;
  }
}

void DFGPlan::computeRegionDefs() {
  const unsigned NR = PST->numRegions();
  RegionDefs = Temps.takeFilled<std::uint64_t>(std::size_t(NR) * Words, 0);
  for (const auto &BB : F.blocks()) {
    std::uint64_t *Defs = RegionDefs + PST->regionOfBlock(BB->id()) * Words;
    for (const auto &I : BB->instructions())
      if (const auto *D = dyn_cast<DefInst>(I.get()))
        Defs[D->def() / 64] |= std::uint64_t(1) << (D->def() % 64);
  }
  // Aggregate defs inside-out (children before parents). Region ids are
  // not ordered by nesting, so walk a breadth-first order of the tree
  // backwards.
  unsigned *Order = Temps.take<unsigned>(NR);
  std::size_t NumOrdered = 0;
  Order[NumOrdered++] = 0;
  for (std::size_t K = 0; K != NumOrdered; ++K)
    for (unsigned Child : PST->children(Order[K]))
      Order[NumOrdered++] = Child;
  assert(NumOrdered == NR && "every region hangs off the root");
  for (std::size_t K = NR; K-- > 1;) {
    const unsigned R = Order[K];
    const unsigned P = unsigned(PST->region(R).Parent);
    for (std::size_t W = 0; W != Words; ++W)
      RegionDefs[P * Words + W] |= RegionDefs[R * Words + W];
  }
}

unsigned DFGPlan::bypassedVars(unsigned R) const {
  unsigned Assigned = 0;
  for (std::size_t W = 0; W != Words; ++W)
    Assigned += unsigned(std::popcount(RegionDefs[R * Words + W]));
  return NumVarsWithCtrl - Assigned;
}

/// Flags the blocks that own a region exit edge and counts the bypass
/// redirects: the exit edge of canonical region R carries its entry edge's
/// value for every variable R does not assign (always for the control
/// variable). Region 0 is the whole function and never closes.
void DFGPlan::markRegionExits() {
  for (unsigned &R : RPO)
    for (unsigned EId : E.outEdges(F.block(R & Block::IdMask)))
      if (PST->regionClosedBy(EId) >= 0)
        R |= Block::ExitBit;
  for (unsigned R = 1; R < PST->numRegions(); ++R) {
    assert(PST->regionClosedBy(unsigned(PST->region(R).ExitEdge)) ==
               int(R) &&
           "one exit edge closes each canonical region");
    NumRedirects += bypassedVars(R);
  }
}

/// Counts the paper's base-level graph exactly (one entry per variable, one
/// merge/switch per join/branch per variable, one use per variable
/// operand, one def per assignment) and the taps. The base level is only
/// counted, for the statistics; it is never built.
void DFGPlan::countBase() {
  std::uint32_t MergeBlocks = 0, SwitchBlocks = 0, MergeIndeg = 0;
  std::uint32_t VarUses = 0, CtrlUses = 0, Defs = 0;
  for (unsigned R : RPO) {
    const Block BR(R);
    const BasicBlock *BB = F.block(BR.id());
    if (BR.isMerge()) {
      ++MergeBlocks;
      MergeIndeg += std::uint32_t(E.inEdges(BB).size());
    }
    if (BR.isSwitch())
      ++SwitchBlocks;
    for (const auto &I : BB->instructions()) {
      assert(!isa<PhiInst>(I.get()) && "DFG construction runs on phi-free IR");
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
  NumBaseNodes =
      NumVarsWithCtrl * (1 + MergeBlocks + SwitchBlocks) + NumUses + Defs;
  NumBaseEdges = NumUses + NumVarsWithCtrl * (SwitchBlocks + MergeIndeg);
}

/// Carves the taps, the liveness sets, the rows and the list counts from
/// one block sized exactly.
void DFGPlan::carveScratch() {
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
  MergeCount = Scratch.take<U32>(NB);
  SwitchCount = Scratch.take<U32>(NB);
  DepCount = Scratch.take<U32>(NE);
  assert(Scratch.remaining() == 0 && "plan scratch sized exactly");
}

/// Buckets every variable's taps with one stable counting sort over the
/// instructions in RPO block order, and records each block's Gen, Kill and
/// DefEnd on the way. Each instruction contributes its variable uses in
/// operand order, then the control use (Section 3.3: statements with no
/// variable operands; also terminators carrying only immediates, so that
/// dead code reporting covers their operands uniformly), then its def.
void DFGPlan::collectTaps() {
  const VarId Ctrl = controlVar();
  auto ForEachTap = [&](auto Visit) {
    for (unsigned R : RPO) {
      const unsigned B = R & Block::IdMask;
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
          Visit(B, Ctrl, InstIdx, std::int32_t(I->numOperands()));
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

/// Liveness under bypass: one backward fixpoint over the reachable CFG,
/// word-parallel over every variable and the control variable. The value
/// on edge e reaches a use if V is live into e's target, or (the bypass
/// redirect) if e is the entry edge of a region R that does not assign V
/// and V is live on R's exit edge. A block's own outgoing value feeds only
/// its out-edges that are not redirected.
///
/// A FIFO seeded in postorder revisits a block only when something it
/// reads changed: its successors' LiveIn, or the exit edge of a region one
/// of its out-edges enters. The sets only grow, so any visiting order
/// reaches the same least fixpoint. The queue lives in the RPO search's
/// stack, and a block's mark records whether it is queued.
void DFGPlan::computeLiveness() {
  const std::size_t W = Words, NB = F.numBlocks();
  std::uint32_t *Queue = SearchStack;
  std::size_t QHead = 0, QSize = 0;
  auto Push = [&](unsigned B) {
    if (Mark[B] != Reached)
      return; // Unreachable, or already queued.
    Mark[B] = Queued;
    const std::size_t Slot = QHead + QSize++;
    Queue[Slot < NB ? Slot : Slot - NB] = B;
  };
  for (auto It = RPO.rbegin(); It != RPO.rend(); ++It)
    Push(*It & Block::IdMask);
  while (QSize) {
    const unsigned B = Queue[QHead];
    QHead = QHead + 1 == NB ? 0 : QHead + 1;
    --QSize;
    Mark[B] = Reached;
    const BasicBlock *BB = F.block(B);
    std::uint64_t *Out = LiveOut + B * W;
    std::fill(Out, Out + W, 0);
    for (unsigned EId : E.outEdges(BB)) {
      std::uint64_t *Live = LiveEdge + std::size_t(EId) * W;
      const std::uint64_t *ToIn =
          LiveIn + std::size_t(E.edge(EId).To->id()) * W;
      const std::uint64_t *ExitLive = nullptr, *OpenedDefs = nullptr;
      const std::uint64_t *ClosedDefs = nullptr;
      int Closed = -1;
      if (PST) {
        if (int R = PST->regionOpenedBy(EId); R >= 0) {
          ExitLive =
              LiveEdge + std::size_t(PST->region(unsigned(R)).ExitEdge) * W;
          OpenedDefs = RegionDefs + unsigned(R) * W;
        }
        if (Closed = PST->regionClosedBy(EId); Closed >= 0)
          ClosedDefs = RegionDefs + unsigned(Closed) * W;
      }
      bool Changed = false;
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
      // The region's entry edge reads this exit edge.
      if (Changed && Closed >= 0)
        Push(E.edge(unsigned(PST->region(unsigned(Closed)).EntryEdge))
                 .From->id());
    }
    const std::uint64_t *BGen = Gen + B * W, *BKill = Kill + B * W;
    std::uint64_t *In = LiveIn + B * W;
    bool Changed = false;
    for (std::size_t I = 0; I != W; ++I) {
      std::uint64_t L = BGen[I] | (Out[I] & ~BKill[I]);
      if (L != In[I]) {
        In[I] = L;
        Changed = true;
      }
    }
    if (Changed)
      for (unsigned EId : E.inEdges(BB))
        Push(E.edge(EId).From->id());
  }
}

/// Reads the rows and counts off the liveness sets: transposes them into
/// the per-variable rows and counts the live graph exactly (and each
/// block's switch and merge list and each CFG edge's dependence list). An
/// entry node and each merge exist where V is live in, a switch where V is
/// live out, every use, and a def when a use in its block reads it or it
/// is its block's last def and V is live out. Every use and every live
/// switch or merge has one in-edge per input. A CFG edge's dependence list
/// has one entry per variable live on it.
void DFGPlan::planRouting() {
  std::uint32_t Nodes = NumUses + NumDefsUsedLocally, Edges = NumUses;
  const unsigned EntryId = F.entry()->id();
  for (std::size_t P = 0; P != RPO.size(); ++P) {
    const Block BR(RPO[P]);
    const unsigned B = BR.id();
    const BasicBlock *BB = F.block(B);
    const std::uint32_t Preds = std::uint32_t(E.inEdges(BB).size());
    std::uint32_t BlockMerges = 0, BlockSwitches = 0;
    for (std::size_t W = 0, I = B * Words; W != Words; ++W, ++I) {
      const std::uint64_t In = LiveIn[I], Out = LiveOut[I];
      const std::uint64_t Merges = BR.isMerge() ? In : 0;
      const std::uint64_t Switches = BR.isSwitch() ? Out : 0;
      std::uint64_t Visit = In | Kill[I];
      if (BR.closesRegion())
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
    MergeCount[B] = BlockMerges;
    SwitchCount[B] = BlockSwitches;
    NumLiveMerges += BlockMerges;
    NumLiveSwitches += BlockSwitches;
    Edges += BlockMerges * Preds + BlockSwitches;
  }
  for (std::size_t EId = 0; EId != E.size(); ++EId) {
    std::uint32_t Live = 0;
    for (std::size_t W = 0; W != Words; ++W)
      Live += std::uint32_t(std::popcount(LiveEdge[EId * Words + W]));
    DepCount[EId] = Live;
    NumLiveDeps += Live;
  }
  NumLiveNodes = Nodes + NumLiveMerges + NumLiveSwitches;
  NumLiveEdges = Edges;
}

/// Sets RPO position \p P in the row of every variable of word \p W whose
/// bit is set in \p Bits.
void DFGPlan::scatter(std::uint64_t *Rows, std::size_t W, std::uint64_t Bits,
                      std::size_t P) {
  const std::uint64_t Bit = std::uint64_t(1) << (P % 64);
  for (; Bits; Bits &= Bits - 1) {
    const std::size_t V = W * 64 + std::size_t(std::countr_zero(Bits));
    Rows[V * RPOWords + P / 64] |= Bit;
  }
}

//===----------------------------------------------------------------------===//
// Materialization
//===----------------------------------------------------------------------===//

/// Creates the graph a plan routes; a friend of both classes so it can
/// fill the graph's private tables and read the plan's.
///
/// The paper's construction (Section 3.2) routes every variable through
/// every block (the base level), bypasses SESE regions, and then removes
/// dead edges: a node survives iff a use is reachable from it, i.e. iff
/// the value it produces is live. The plan computes that liveness first;
/// the builder creates exactly the nodes and edges the removal would keep,
/// in the order the base level creates them, so the graph is identical
/// node for node and edge for edge to base level plus dead-edge removal
/// without materializing the base level.
class depflow::DFGBuilder {
  /// A dependence value's identity while routing: a node output port.
  using Source = DepFlowGraph::DepSlot;
  static constexpr Source NoSource = {-1, 0};
  using Block = DFGPlan::Block;

  DFGPlan &P;
  const Function &F;
  const CFGEdges &E;
  DepFlowGraph G;

  /// Append cursors: per block id, the next free slot of its switch and
  /// merge lists; per CFG edge, of its dependence list. They are the
  /// plan's list counts, turned into the lists' offsets by
  /// `carveStorage()`. Routing appends one variable at a time, so the
  /// entry before a cursor is the routed variable's whenever it has one
  /// there; `mergeOf`, `switchOf` and `depOf` assert that.
  std::uint32_t *MergeFill;
  std::uint32_t *SwitchFill;
  std::uint32_t *DepFill;

public:
  explicit DFGBuilder(DFGPlan &P)
      : P(P), F(P.F), E(P.E), MergeFill(P.MergeCount),
        SwitchFill(P.SwitchCount), DepFill(P.DepCount) {}

  DepFlowGraph run() {
    G.ControlVar = P.controlVar();
    carveStorage();
    for (VarId V = 0; V != P.NumVarsWithCtrl; ++V)
      routeVariable(V);
    assert(G.numNodes() == P.NumLiveNodes && G.numEdges() == P.NumLiveEdges &&
           "live counts predicted exactly");
    P.Scratch = ScratchBlock();
    buildAdjacency();

    G.BuildStats.EdgesBeforePrune = P.NumBaseEdges;
    G.BuildStats.NodesBeforePrune = P.NumBaseNodes;
    G.BuildStats.BypassRedirects = P.NumRedirects;
    NumDFGBaseEdges += P.NumBaseEdges;
    NumDFGBypassRedirects += P.NumRedirects;
    NumDFGDeadEdgesRemoved += P.NumBaseEdges - G.numEdges();
    NumDFGDeadNodesRemoved += P.NumBaseNodes - G.numNodes();
    // Region 0 is the whole function and never closes, so the histogram
    // covers only canonical regions.
    if (P.PST)
      for (unsigned R = 1; R < P.PST->numRegions(); ++R)
        HistDFGBypassPerRegion.sample(P.bypassedVars(R));
    return std::move(G);
  }

private:
  /// Carves every array of the graph from one block sized exactly, lays
  /// out the canonical numbering (each block's first row, each row's
  /// instruction) and the per-instruction tables (def node, use-slot CSR
  /// with one slot per operand plus one for the control use), and the
  /// offsets of the per-block and per-edge lists, whose cursors start at
  /// them.
  void carveStorage() {
    using U32 = std::uint32_t;
    using I32 = std::int32_t;
    const std::size_t N = P.NumLiveNodes, NE = P.NumLiveEdges;
    const std::size_t NB = F.numBlocks(), NC = E.size();
    const std::size_t NV = P.NumVarsWithCtrl;
    const std::size_t NumInstrs = P.NumInstrs, NumUseSlots = P.NumUseSlots;
    G.Storage = ScratchBlock(
        ScratchBlock::bytesFor<std::uint8_t>(N) +
        ScratchBlock::bytesFor<VarId>(N) + 2 * ScratchBlock::bytesFor<I32>(N) +
        ScratchBlock::bytesFor<U32>(N) +
        ScratchBlock::bytesFor<DepFlowGraph::Edge>(NE) +
        2 * ScratchBlock::bytesFor<U32>(N + 1) +
        2 * ScratchBlock::bytesFor<U32>(NE) +
        ScratchBlock::bytesFor<Instruction *>(NumInstrs) +
        ScratchBlock::bytesFor<BasicBlock *>(NB) +
        ScratchBlock::bytesFor<U32>(NB) + ScratchBlock::bytesFor<I32>(NV) +
        ScratchBlock::bytesFor<I32>(NumInstrs) +
        ScratchBlock::bytesFor<U32>(NumInstrs + 1) +
        ScratchBlock::bytesFor<I32>(NumUseSlots) +
        2 * ScratchBlock::bytesFor<U32>(NB + 1) +
        ScratchBlock::bytesFor<U32>(P.NumLiveSwitches) +
        ScratchBlock::bytesFor<U32>(P.NumLiveMerges) +
        ScratchBlock::bytesFor<U32>(NC + 1) +
        ScratchBlock::bytesFor<DepFlowGraph::DepEntry>(P.NumLiveDeps));
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
    G.EntryOfVarTab = S.takeFilled<I32>(NV, -1);
    G.DefNodeOfInstr = S.takeFilled<I32>(NumInstrs, -1);
    G.UseOff = S.take<U32>(NumInstrs + 1);
    G.UseSlots = S.takeFilled<I32>(NumUseSlots, -1);
    G.SwitchOff = S.take<U32>(NB + 1);
    G.MergeOff = S.take<U32>(NB + 1);
    G.SwitchIds = S.take<U32>(P.NumLiveSwitches);
    G.MergeIds = S.take<U32>(P.NumLiveMerges);
    G.DepOff = S.take<U32>(NC + 1);
    G.Deps = S.take<DepFlowGraph::DepEntry>(P.NumLiveDeps);
    assert(S.remaining() == 0 && "graph storage sized exactly");

    G.NumInstrs = P.NumInstrs;
    G.NumBlocks = std::uint32_t(NB);
    std::copy_n(P.InstrBase, NB, G.BlockFirstInstr);
    std::uint32_t Idx = 0, Slot = 0;
    for (const auto &BB : F.blocks()) {
      G.BlockByIdx[BB->id()] = BB.get();
      for (const auto &I : BB->instructions()) {
        G.InstrByIdx[Idx] = I.get();
        G.UseOff[Idx] = Slot;
        Slot += I->numOperands() + 1;
        ++Idx;
      }
    }
    G.UseOff[NumInstrs] = Slot;

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

  unsigned makeNode(DepFlowGraph::NodeKind Kind, VarId V,
                    std::int32_t InstIdx, std::uint32_t OpIdx,
                    std::int32_t BlockId) {
    assert(G.NumNodes < P.NumLiveNodes && "live node count predicted exactly");
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
    assert(G.NumEdges < P.NumLiveEdges && "live edge count predicted exactly");
    G.Edges[G.NumEdges++] = {unsigned(Src.Node), Dst, V, Src.Port, DstPort};
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
    const unsigned EntryId = F.entry()->id();

    Source EntryValue = NoSource;
    if (P.liveIn(EntryId, V)) {
      EntryValue.Node = std::int32_t(makeNode(DepFlowGraph::NodeKind::Entry,
                                              V, -1, 0,
                                              std::int32_t(EntryId)));
      G.EntryOfVarTab[V] = EntryValue.Node;
    }

    // Merge and switch nodes first (the base level creates one at every
    // join/branch here; the live ones keep that relative order).
    const std::uint64_t *Merges = P.MergeRows + std::size_t(V) * P.RPOWords;
    const std::uint64_t *Switches = P.SwitchRows + std::size_t(V) * P.RPOWords;
    for (std::size_t W = 0; W != P.RPOWords; ++W)
      for (std::uint64_t Bits = Merges[W] | Switches[W]; Bits;
           Bits &= Bits - 1) {
        const std::size_t Pos = W * 64 + std::size_t(std::countr_zero(Bits));
        const unsigned B = Block(P.RPO[Pos]).id();
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
    std::uint32_t K = P.TapOff[V];
    const std::uint32_t KEnd = P.TapOff[V + 1];
    P.forEachVisitedBlock(V, [&](Block BR) {
      const unsigned B = BR.id();
      const std::uint32_t First = P.InstrBase[B];
      const std::uint32_t Size = std::uint32_t(G.BlockByIdx[B]->size());

      // Incoming dependence.
      Source Cur = NoSource;
      if (P.liveIn(B, V)) {
        if (B == EntryId) {
          Cur = EntryValue;
        } else if (BR.isMerge()) {
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
      for (; K != KEnd && P.TapInst[K] - First < Size; ++K) {
        const std::uint32_t InstIdx = P.TapInst[K];
        if (P.TapCode[K] == DFGPlan::DefTap) {
          const bool NextInBlock =
              K + 1 != KEnd && P.TapInst[K + 1] - First < Size;
          if (NextInBlock ? P.TapCode[K + 1] != DFGPlan::DefTap
                          : P.liveOut(B, V)) {
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
        const std::uint32_t OpIdx = std::uint32_t(P.TapCode[K]);
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
      if (BR.isSwitch() && P.liveOut(B, V)) {
        S = int(switchOf(B, V));
        addEdge(Cur, unsigned(S), V);
      }
      const auto &Out = E.outEdges(G.BlockByIdx[B]);
      for (unsigned SI = 0; SI != Out.size(); ++SI) {
        const unsigned EId = Out[SI];
        if (!P.liveOnEdge(EId, V))
          continue;
        // The region's entry edge precedes its exit in RPO.
        if (int From = BR.closesRegion() ? P.bypassedFrom(EId, V) : -1;
            From >= 0)
          setDep(EId, V, depOf(unsigned(From), V));
        else
          setDep(EId, V,
                 BR.isSwitch() ? Source{S, std::uint16_t(SI)} : Cur);
      }
    });
    assert(K == KEnd && "every tap of V lies in a visited block");

    // Wire merges now that every live dep slot (including back edges) is
    // known.
    P.forEachLiveMerge(V, [&](Block BR) {
      const unsigned B = BR.id();
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

DepFlowGraph DepFlowGraph::materialize(DFGPlan &&Plan) {
  return DFGBuilder(Plan).run();
}

DepFlowGraph DepFlowGraph::build(Function &F, const CFGEdges &E,
                                 BypassMode Mode) {
  return materialize(DFGPlan(F, E, Mode));
}

DepFlowGraph DepFlowGraph::build(Function &F, const CFGEdges &E,
                                 const ProgramStructureTree &PST) {
  return materialize(DFGPlan(F, E, PST));
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
