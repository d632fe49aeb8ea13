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
/// exactly that graph without materializing the base level:
///   1. defs-per-region, aggregated inside-out over the PST;
///   2. *liveness under bypass*: one backward fixpoint over the CFG,
///      word-parallel over all variables, whose one extra transfer rule is
///      the redirect — the liveness of a bypassable region's exit edge
///      flows to the region's entry edge, not to the exit edge's source;
///   3. *live routing*: per variable, only the nodes whose value is live
///      and the edges into them are created, in the base level's creation
///      order. A node reaches a use iff its value is live, so this is the
///      base level plus dead-edge removal, node for node and edge for
///      edge (`tests/fixtures/dfg/` pins it).
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
///     index on access, and pointer-keyed queries binary-search a sorted
///     side table instead of hashing;
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

#include <cassert>
#include <span>
#include <string>
#include <vector>

namespace depflow {

class DFGBuilder;

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

private:
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
  struct InstKey {
    const Instruction *I;
    std::uint32_t Idx;
  };

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
  Instruction **InstrByIdx = nullptr;   // [instr index] -> instruction
  BasicBlock **BlockByIdx = nullptr;    // [block id] -> block
  std::uint32_t *BlockFirstInstr = nullptr; // [block id] -> first instr index
  InstKey *InstIndex = nullptr;         // sorted by pointer, for lookups

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
  /// function (binary search over InstIndex).
  int instrIndex(const Instruction *I) const;

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
  /// Def node of instruction \p I, or -1 if its value is dead.
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
  /// Canonical index of the terminator of \p BB.
  unsigned terminatorIndex(const BasicBlock *BB) const {
    return BlockFirstInstr[BB->id()] + unsigned(BB->size()) - 1;
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
  /// value crossing that edge (\p V is dead there). This is the Section
  /// 5.1 projection hook: a dependence edge from that source spans the
  /// CFG edge.
  std::pair<int, unsigned> depAtEdge(unsigned EdgeId, VarId V) const;

  const Stats &stats() const { return BuildStats; }

  /// Renders the graph in GraphViz format (per-variable coloring).
  std::string toDot(const Function &F) const;

  /// Human-readable node label for diagnostics.
  std::string nodeLabel(const Function &F, unsigned NodeId) const;
};

} // namespace depflow

#endif // DEPFLOW_CORE_DEPFLOWGRAPH_H
