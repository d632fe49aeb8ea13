//===- core/DepFlowGraph.h - The dependence flow graph ----------*- C++ -*-===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dependence flow graph (DFG) — the paper's central data structure.
///
/// Per variable, dependence values flow through five kinds of nodes:
///   * Entry  — the implicit definition of every variable at `start`
///              (variables are 0 at entry; parameters are also entry defs);
///   * Def    — an instruction that assigns the variable;
///   * Use    — one operand of an instruction reading the variable;
///   * Switch — at a conditional branch: routes the incoming dependence to
///              one output per CFG successor;
///   * Merge  — at a join block: combines one dependence per predecessor.
///
/// Section 3.2 of the paper constructs the graph in three steps after
/// aggregating defs per region inside-out over the PST: a base-level graph
/// routing every variable through every block (merge at joins, switch at
/// branches, def/use taps in order); *region bypassing*, where for each
/// canonical SESE region containing no assignment to v the
/// through-dependence at the region's exit edge is taken directly from its
/// entry edge, skipping the interior; and *dead edge removal*, discarding
/// nodes from which no use is reachable (this restricts the graph to live
/// ranges, matching conditions 1-2 of Definition 6). The builder produces
/// exactly that graph without materializing the base level, in two steps:
///   * the *routing plan* (`DFGPlan`), a value:
///     1. defs-per-region, aggregated inside-out over the PST;
///     2. *liveness under bypass*: one backward fixpoint over the CFG,
///        word-parallel over all variables, whose one extra transfer rule
///        is the redirect — the liveness of a bypassable region's exit
///        edge flows to the region's entry edge, not to the exit edge's
///        source;
///     3. per variable, rows over the RPO positions of the blocks it
///        visits and of its live merges and switches, and the exact size
///        of every list of the live graph;
///   * *materialization* (`DepFlowGraph::materialize`): per variable, only
///     the nodes whose value is live and the edges into them are created,
///     in the base level's creation order. A node reaches a use iff its
///     value is live, so this is the base level plus dead-edge removal,
///     node for node and edge for edge (`tests/fixtures/dfg/` pins it).
/// SSA construction (ssa/SSA.h) reads its φs off the plan alone.
///
/// A *control variable* (id == Function::numVars()) is defined at entry and
/// used by every statement with no variable operands (Section 3.3); its
/// dependences are the factored control edges that let the forward solver
/// track executability (possible-paths constants, Figure 3b).
///
/// A *multiedge* is one (node, output port) with all of its out-edges: the
/// tail and heads vocabulary of Sections 4-5.
///
/// Memory layout: the graph is struct-of-arrays over 32-bit indices, and
/// its storage is proportional to the live graph. Everything is carved
/// from one exactly sized `ScratchBlock` the graph owns, sized once the
/// builder knows the live node, edge, switch, merge and (edge, variable)
/// counts:
///   * the node attribute columns and the edge column;
///   * the CSR adjacency (`outEdges`/`inEdges` return `std::span`s into
///     it);
///   * the per-instruction tables (def node, use slots) and the canonical
///     numbering: instructions are referred to by a dense index (function
///     block/instruction order), `Node::Inst` is materialized from that
///     index on access, and pointer-keyed queries compute the index as the
///     block's first index plus the instruction's position in the block
///     (`canonicalRow`);
///   * per block, the live switch and merge nodes, and per CFG edge, the
///     dependence source of each variable live on it: CSR lists in
///     ascending variable order, filled during routing, which goes one
///     variable at a time.
/// No table is sized blocks × variables or CFG edges × variables. The
/// block lives on the heap, so a moved `DepFlowGraph` keeps every internal
/// pointer valid: cached analysis results can relocate the graph freely.
/// The graph is move-only.
///
//===----------------------------------------------------------------------===//

#ifndef DEPFLOW_CORE_DEPFLOWGRAPH_H
#define DEPFLOW_CORE_DEPFLOWGRAPH_H

#include "ir/CFGEdges.h"
#include "ir/Function.h"
#include "structure/SESE.h"
#include "support/Arena.h"

#include <bit>
#include <cassert>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace depflow {

class DFGBuilder;
class DFGPlan;

class DepFlowGraph {
public:
  enum class NodeKind : std::uint8_t { Entry, Def, Use, Switch, Merge };

  /// How aggressively to bypass regions (Section 3.3 discusses that any
  /// equivalence finer than control dependence works; None is the ablation
  /// baseline that routes every variable through every block).
  enum class BypassMode { None, SESE };

  /// A materialized node view: the storage is columnar, so `node()` gathers
  /// one node's attributes by value. Callers that bind `const Node &` keep
  /// working (lifetime extension); the view is 24 bytes either way.
  struct Node {
    NodeKind Kind;
    VarId Var = 0;              // May be the control variable.
    Instruction *Inst = nullptr; // Def/Use.
    unsigned OpIdx = 0;          // Use: operand index within Inst.
    BasicBlock *Block = nullptr; // Switch/Merge (also set for Def/Use).
  };

  struct Edge {
    unsigned Src;
    unsigned Dst;
    VarId Var;
    std::uint16_t SrcPort; // Switch: successor index; otherwise 0.
    std::uint16_t DstPort; // Merge: predecessor index; otherwise 0.
  };

  /// Sizes of the paper's base-level graph (before dead-edge removal) and
  /// its bypass redirects. The builder counts them exactly in closed form;
  /// it never builds the base level.
  struct Stats {
    unsigned EdgesBeforePrune = 0;
    unsigned NodesBeforePrune = 0;
    unsigned BypassRedirects = 0;
  };

  /// The ascending edge ids [First, Last) of one variable's slice.
  class EdgeIdRange {
    unsigned First = 0;
    unsigned Last = 0;

  public:
    class iterator {
      unsigned Id;

    public:
      explicit iterator(unsigned Id) : Id(Id) {}
      unsigned operator*() const { return Id; }
      iterator &operator++() {
        ++Id;
        return *this;
      }
      bool operator==(const iterator &O) const { return Id == O.Id; }
      bool operator!=(const iterator &O) const { return Id != O.Id; }
    };

    EdgeIdRange() = default;
    EdgeIdRange(unsigned First, unsigned Last) : First(First), Last(Last) {}
    iterator begin() const { return iterator(First); }
    iterator end() const { return iterator(Last); }
    unsigned first() const { return First; }
    unsigned size() const { return Last - First; }
    bool empty() const { return First == Last; }
  };

  /// A dependence source: a node and its output port.
  struct DepSlot {
    std::int32_t Node;
    std::uint16_t Port;
  };
  /// One entry of a CFG edge's dependence list: the source of the value
  /// of `Var` crossing the edge.
  struct DepEntry {
    VarId Var;
    DepSlot Src;
  };

private:
  /// Backs every array below: one block sized from the exact live counts
  /// before routing. It lives on the heap, so the arrays move with the
  /// graph.
  ScratchBlock Storage;

  // Node columns (struct-of-arrays), NumNodes entries each.
  std::uint32_t NumNodes = 0;
  std::uint32_t NumEdges = 0;
  std::uint8_t *NodeKinds = nullptr;
  VarId *NodeVars = nullptr;
  std::int32_t *NodeInst = nullptr;   // canonical instr index or -1
  std::uint32_t *NodeOp = nullptr;    // Use: operand index
  std::int32_t *NodeBlock = nullptr;  // block id or -1
  Edge *Edges = nullptr;              // NumEdges entries

  // CSR adjacency: edge ids of node N are OutIdx[OutOff[N]..OutOff[N+1])
  // (ascending edge id — creation order), likewise for in-edges.
  std::uint32_t *OutOff = nullptr;
  std::uint32_t *OutIdx = nullptr;
  std::uint32_t *InOff = nullptr;
  std::uint32_t *InIdx = nullptr;

  unsigned ControlVar = 0;
  Stats BuildStats;

  // Canonical numbering (function block/instruction order).
  std::uint32_t NumInstrs = 0;
  std::uint32_t NumBlocks = 0;
  Instruction **InstrByIdx = nullptr;   // [instr index] -> instruction
  BasicBlock **BlockByIdx = nullptr;    // [block id] -> block
  std::uint32_t *BlockFirstInstr = nullptr; // [block id] -> first instr index

  // Lookup tables (32-bit entries, -1 == absent).
  std::int32_t *EntryOfVarTab = nullptr;   // [var] -> node
  std::int32_t *DefNodeOfInstr = nullptr;  // [instr index] -> node
  std::uint32_t *UseOff = nullptr;         // [instr index] -> UseSlots base
  std::int32_t *UseSlots = nullptr;        // per instr: numOperands()+1 slots

  // Per block id B: its live switch nodes are SwitchIds[SwitchOff[B] ..
  // SwitchOff[B+1]), its live merges likewise, each list ascending.
  std::uint32_t *SwitchOff = nullptr;
  std::uint32_t *SwitchIds = nullptr;
  std::uint32_t *MergeOff = nullptr;
  std::uint32_t *MergeIds = nullptr;

  // Per CFG edge: Deps[DepOff[E] .. DepOff[E+1]) covers exactly the
  // variables live on E, ascending.
  std::uint32_t *DepOff = nullptr;
  DepEntry *Deps = nullptr;

  /// Canonical index of \p I, or -1 for instructions not in the numbered
  /// function.
  int instrIndex(const Instruction *I) const {
    return canonicalRow(I, {BlockFirstInstr, NumBlocks},
                        {InstrByIdx, NumInstrs});
  }

  /// The node of variable \p V in the ascending list [First, Last), or -1.
  int findNodeOfVar(const std::uint32_t *First, const std::uint32_t *Last,
                    VarId V) const;

  friend class DFGBuilder;

public:
  DepFlowGraph() = default;
  DepFlowGraph(DepFlowGraph &&) = default;
  DepFlowGraph &operator=(DepFlowGraph &&) = default;
  DepFlowGraph(const DepFlowGraph &) = delete;
  DepFlowGraph &operator=(const DepFlowGraph &) = delete;

  /// Builds the DFG of \p F. Requires: F verifies and contains no phis.
  static DepFlowGraph build(Function &F, const CFGEdges &E,
                            BypassMode Mode = BypassMode::SESE);

  /// Convenience overload computing the edge numbering itself.
  static DepFlowGraph build(Function &F, BypassMode Mode = BypassMode::SESE);

  /// SESE-bypass build reusing an already-computed PST (the analysis
  /// manager's cache) instead of deriving cycle equivalence and the tree
  /// privately. \p PST must come from (F, E).
  static DepFlowGraph build(Function &F, const CFGEdges &E,
                            const ProgramStructureTree &PST);

  /// Creates the graph \p Plan routes. Routing consumes the plan's list
  /// counts as its cursors, so the plan is spent afterwards.
  static DepFlowGraph materialize(DFGPlan &&Plan);

  unsigned numNodes() const { return NumNodes; }
  unsigned numEdges() const { return NumEdges; }
  Node node(unsigned Id) const {
    assert(Id < NumNodes && "DFG node id out of range");
    std::int32_t II = NodeInst[Id];
    std::int32_t BI = NodeBlock[Id];
    return {NodeKind(NodeKinds[Id]), NodeVars[Id],
            II >= 0 ? InstrByIdx[II] : nullptr, NodeOp[Id],
            BI >= 0 ? BlockByIdx[BI] : nullptr};
  }
  const Edge &edge(unsigned Id) const {
    assert(Id < NumEdges && "DFG edge id out of range");
    return Edges[Id];
  }
  /// Out-edges in creation order: heads that are uses or switches in
  /// the reverse postorder of their blocks, then the merge heads. The ANT
  /// projection relies on this order.
  std::span<const std::uint32_t> outEdges(unsigned NodeId) const {
    return {OutIdx + OutOff[NodeId], OutIdx + OutOff[NodeId + 1]};
  }
  std::span<const std::uint32_t> inEdges(unsigned NodeId) const {
    return {InIdx + InOff[NodeId], InIdx + InOff[NodeId + 1]};
  }

  /// Edges of variable \p V (possibly the control variable). The builder
  /// creates edges one variable at a time in ascending variable order, so
  /// each slice is one contiguous id range, found by binary search over
  /// the edge column.
  EdgeIdRange edgesOfVar(VarId V) const;

  /// The variable id used for control edges (== Function::numVars()).
  VarId controlVar() const { return ControlVar; }
  bool isControl(VarId V) const { return V == ControlVar; }

  /// Entry node of \p V, or -1 if V is dead at entry.
  int entryNode(VarId V) const { return EntryOfVarTab[V]; }
  /// Def node of instruction \p I, or -1 (its value is dead, or \p I is
  /// not an instruction of the graph).
  int defNode(const Instruction *I) const {
    int Idx = instrIndex(I);
    return Idx < 0 ? -1 : DefNodeOfInstr[Idx];
  }
  /// The same for the instruction with canonical index \p InstrIdx.
  int defNodeAt(unsigned InstrIdx) const { return DefNodeOfInstr[InstrIdx]; }
  /// Use node for operand \p OpIdx of \p I, or -1 (non-var operand, or
  /// not an instruction of the graph). For statements with a control use,
  /// the control use is indexed at position numOperands().
  int useNode(const Instruction *I, unsigned OpIdx) const {
    int Idx = instrIndex(I);
    return Idx < 0 ? -1 : useNodeAt(unsigned(Idx), OpIdx);
  }
  /// The same for the instruction with canonical index \p InstrIdx.
  int useNodeAt(unsigned InstrIdx, unsigned OpIdx) const {
    if (OpIdx >= UseOff[InstrIdx + 1] - UseOff[InstrIdx])
      return -1;
    return UseSlots[UseOff[InstrIdx] + OpIdx];
  }
  /// Canonical index of the instruction of Def/Use node \p NodeId, or -1.
  int instrIndexOf(unsigned NodeId) const { return NodeInst[NodeId]; }
  /// Canonical index of the first instruction of \p BB.
  unsigned firstIndex(const BasicBlock *BB) const {
    return BlockFirstInstr[BB->id()];
  }
  /// Canonical index of the terminator of \p BB.
  unsigned terminatorIndex(const BasicBlock *BB) const {
    return firstIndex(BB) + unsigned(BB->size()) - 1;
  }

  /// The live switch nodes at \p BB, in ascending variable order.
  std::span<const std::uint32_t> switchesAt(const BasicBlock *BB) const {
    return {SwitchIds + SwitchOff[BB->id()],
            SwitchIds + SwitchOff[BB->id() + 1]};
  }
  /// The switch node of \p V at \p BB, or -1 if V is dead out of BB.
  int switchNode(const BasicBlock *BB, VarId V) const {
    return findNodeOfVar(SwitchIds + SwitchOff[BB->id()],
                         SwitchIds + SwitchOff[BB->id() + 1], V);
  }
  /// The merge node of \p V at \p BB, or -1 if V is dead into BB.
  int mergeNode(const BasicBlock *BB, VarId V) const {
    return findNodeOfVar(MergeIds + MergeOff[BB->id()],
                         MergeIds + MergeOff[BB->id() + 1], V);
  }

  /// The dependence source (node, port) whose value for \p V crosses CFG
  /// edge \p EdgeId, or {-1, 0} exactly when no use is reachable from the
  /// value crossing that edge (\p V is dead there). Section 5.1's
  /// projection reads ANT at the CFG edge off that source's heads
  /// (dataflow/Anticipatability.h).
  std::pair<int, unsigned> depAtEdge(unsigned EdgeId, VarId V) const;
  /// The whole dependence list of CFG edge \p EdgeId: one entry per
  /// variable live on it, in ascending variable order.
  std::span<const DepEntry> depsAt(unsigned EdgeId) const {
    return {Deps + DepOff[EdgeId], Deps + DepOff[EdgeId + 1]};
  }

  const Stats &stats() const { return BuildStats; }

  /// Renders the graph in GraphViz format (per-variable coloring).
  std::string toDot(const Function &F) const;

  /// Human-readable node label for diagnostics.
  std::string nodeLabel(const Function &F, unsigned NodeId) const;
};

/// The routing plan of one DFG build: every decision Section 3.2's
/// construction makes before it creates a node, per variable and over all
/// variables at once. It holds
///   * the reachable blocks in reverse postorder (RPO);
///   * every variable's taps (def and use points) in RPO order;
///   * liveness under bypass, per block and per CFG edge;
///   * per variable, one row over the RPO positions each for the blocks it
///     visits (its taps, a live incoming value or a live out-edge), its
///     live merges and its live switches;
///   * the exact node, edge and list counts of the live graph.
/// `DepFlowGraph::materialize` turns it into the graph; clients that need
/// only routing decisions (φ placement) read them here instead.
class DFGPlan {
public:
  /// A reachable block as the plan walks it: its id and the flags routing
  /// reads, packed in one word.
  class Block {
    unsigned Entry;

  public:
    static constexpr unsigned MergeBit = 1u << 31;
    static constexpr unsigned SwitchBit = 1u << 30;
    static constexpr unsigned ExitBit = 1u << 29;
    static constexpr unsigned IdMask = ExitBit - 1;

    explicit Block(unsigned Entry) : Entry(Entry) {}
    unsigned id() const { return Entry & IdMask; }
    bool isMerge() const { return Entry & MergeBit; }
    bool isSwitch() const { return Entry & SwitchBit; }
    /// One of the block's out-edges is the exit edge of a canonical SESE
    /// region (SESE bypass only).
    bool closesRegion() const { return Entry & ExitBit; }
  };

  /// Plans the DFG of \p F. Requires: F verifies and contains no phis.
  DFGPlan(Function &F, const CFGEdges &E,
          DepFlowGraph::BypassMode Mode = DepFlowGraph::BypassMode::SESE);
  /// SESE-bypass plan reusing an already-computed PST of (F, E).
  DFGPlan(Function &F, const CFGEdges &E, const ProgramStructureTree &PST);
  DFGPlan(DFGPlan &&) = default;
  DFGPlan(const DFGPlan &) = delete;
  DFGPlan &operator=(const DFGPlan &) = delete;

  Function &function() const { return F; }
  const CFGEdges &cfgEdges() const { return E; }
  /// The control variable (== Function::numVars()).
  VarId controlVar() const { return VarId(NumVarsWithCtrl - 1); }

  /// Calls \p Visit with each block \p V visits, in RPO.
  template <typename Fn> void forEachVisitedBlock(VarId V, Fn Visit) const {
    forEachBlock(VisitRows + std::size_t(V) * RPOWords, Visit);
  }
  /// Calls \p Visit with each block holding a live merge of \p V, in RPO.
  template <typename Fn> void forEachLiveMerge(VarId V, Fn Visit) const {
    forEachBlock(MergeRows + std::size_t(V) * RPOWords, Visit);
  }

  bool liveIn(unsigned B, VarId V) const { return test(LiveIn, B, V); }
  /// \p V's own outgoing value of block \p B (not a bypassed one) is live.
  bool liveOut(unsigned B, VarId V) const { return test(LiveOut, B, V); }
  bool liveOnEdge(unsigned EId, VarId V) const {
    return test(LiveEdge, EId, V);
  }
  /// Block \p B assigns \p V.
  bool assigns(unsigned B, VarId V) const { return test(Kill, B, V); }
  /// If CFG edge \p EId is the exit edge of a canonical region that does
  /// not assign \p V, the region's entry edge, whose value \p EId carries
  /// (the bypass redirect); otherwise -1. Only blocks that
  /// `closesRegion()` own such edges.
  int bypassedFrom(unsigned EId, VarId V) const {
    const int R = PST->regionClosedBy(EId);
    if (R < 0 || RegionDefs[unsigned(R) * Words + V / 64] >> (V % 64) & 1)
      return -1;
    return PST->region(unsigned(R)).EntryEdge;
  }

  /// Live merges over all variables, the control variable included.
  unsigned numLiveMerges() const { return NumLiveMerges; }

private:
  friend class DFGBuilder;

  Function &F;
  const CFGEdges &E;
  unsigned NumVarsWithCtrl = 0;
  std::size_t Words = 0; // 64-bit words per set over the variables
  const ProgramStructureTree *PST = nullptr;      // Borrowed (caller's cache)...
  std::unique_ptr<ProgramStructureTree> OwnedPST; // ...or built here.

  /// The plan's temporaries outside the routing scratch below, carved
  /// from one block sized once the PST is known: RPO, InstrBase,
  /// RegionDefs and the scratch of the RPO search and the region order.
  ScratchBlock Temps;
  std::uint64_t *RegionDefs = nullptr; // flat [region][word] def bitsets
  /// Block ids in RPO, each tagged with its `Block` flags, so the
  /// per-variable loops read no block state for them.
  std::span<unsigned> RPO;
  std::uint32_t *InstrBase = nullptr; // block id -> first instr index
  /// The RPO search's stack (two words per block), then liveness's block
  /// queue; and per block id, whether the search reached it and whether
  /// liveness has it queued.
  std::uint32_t *SearchStack = nullptr;
  std::uint8_t *Mark = nullptr;
  enum : std::uint8_t { Unreached, Reached, Queued };

  /// Exact sizes of the paper's base-level graph (counted, never built),
  /// its bypass redirects, the tap counts, and the exact live sizes (read
  /// off the liveness sets).
  std::uint32_t NumBaseNodes = 0;
  std::uint32_t NumBaseEdges = 0;
  std::uint32_t NumRedirects = 0;
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

  /// The per-variable and per-block facts, carved from one block at its
  /// exact size.
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
  /// Rows: the same facts transposed to one `RPOWords`-word bitset over
  /// RPO positions per variable, so a walk over V touches only its own
  /// blocks: VisitRows, MergeRows and SwitchRows.
  ///
  /// List counts: per block id, the length of its switch and merge lists;
  /// per CFG edge, of its dependence list (one entry per live variable).
  /// Materialization turns them into its append cursors.
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
  std::uint32_t *MergeCount = nullptr;
  std::uint32_t *SwitchCount = nullptr;
  std::uint32_t *DepCount = nullptr;
  static constexpr std::int32_t DefTap = -1;

  bool test(const std::uint64_t *Sets, unsigned Idx, VarId V) const {
    return Sets[Idx * Words + V / 64] >> (V % 64) & 1;
  }
  /// Calls \p Visit with the `Block` of each position set in \p Row, in
  /// RPO.
  template <typename Fn>
  void forEachBlock(const std::uint64_t *Row, Fn Visit) const {
    for (std::size_t W = 0; W != RPOWords; ++W)
      for (std::uint64_t Bits = Row[W]; Bits; Bits &= Bits - 1)
        Visit(Block(RPO[W * 64 + std::size_t(std::countr_zero(Bits))]));
  }
  /// The variables canonical region \p R does not assign, the control
  /// variable included: its bypass redirects.
  unsigned bypassedVars(unsigned R) const;

  void run();
  void carveTemps();
  void numberInstructions();
  void computeRPO();
  void computeRegionDefs();
  void markRegionExits();
  void countBase();
  void carveScratch();
  void collectTaps();
  void computeLiveness();
  void planRouting();
  void scatter(std::uint64_t *Rows, std::size_t W, std::uint64_t Bits,
               std::size_t P);
};

} // namespace depflow

#endif // DEPFLOW_CORE_DEPFLOWGRAPH_H
