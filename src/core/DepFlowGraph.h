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
/// Construction follows Section 3.2 of the paper:
///   1. defs-per-region, aggregated inside-out over the PST;
///   2. a base-level graph routing every variable through every block
///      (merge at joins, switch at branches, def/use taps in order);
///   3. *region bypassing*: for each canonical SESE region containing no
///      assignment to v, the through-dependence at the region's exit edge is
///      taken directly from its entry edge, skipping the interior;
///   4. *dead edge removal*: nodes from which no use is reachable are
///      discarded (this also restricts the graph to live ranges, matching
///      conditions 1-2 of Definition 6).
///
/// A *control variable* (id == Function::numVars()) is defined at entry and
/// used by every statement with no variable operands (Section 3.3); its
/// dependences are the factored control edges that let the forward solver
/// track executability (possible-paths constants, Figure 3b).
///
/// A *multiedge* is one (node, output port) with all of its out-edges: the
/// tail and heads vocabulary of Sections 4-5.
///
/// Memory layout: the graph is struct-of-arrays over 32-bit indices. Node
/// attributes live in parallel packed columns; adjacency is two CSR index
/// ranges (`outEdges`/`inEdges` return spans, not vectors); every lookup
/// table (entry/def/use/switch/merge/dep-at-edge) is a flat array carved
/// from one `BumpArena`. Instructions are referred to by a canonical dense
/// index (function block/instruction order) — `Node::Inst` is materialized
/// from that index on access, and pointer-keyed queries binary-search a
/// sorted side table instead of hashing. Because arena chunks are
/// heap-stable, a moved `DepFlowGraph` keeps every internal pointer valid:
/// cached analysis results can relocate the graph freely. The graph is
/// move-only.
///
//===----------------------------------------------------------------------===//

#ifndef DEPFLOW_CORE_DEPFLOWGRAPH_H
#define DEPFLOW_CORE_DEPFLOWGRAPH_H

#include "ir/CFGEdges.h"
#include "ir/Function.h"
#include "structure/SESE.h"
#include "support/Arena.h"
#include "support/PackedVector.h"

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

  struct Stats {
    unsigned EdgesBeforePrune = 0;
    unsigned NodesBeforePrune = 0;
    unsigned BypassRedirects = 0;
  };

  /// An immutable span of 32-bit edge ids inside the graph's CSR adjacency.
  class EdgeRange {
    const std::uint32_t *Ptr = nullptr;
    std::uint32_t Len = 0;

  public:
    EdgeRange() = default;
    EdgeRange(const std::uint32_t *P, std::uint32_t N) : Ptr(P), Len(N) {}
    const std::uint32_t *begin() const { return Ptr; }
    const std::uint32_t *end() const { return Ptr + Len; }
    std::uint32_t operator[](std::uint32_t I) const { return Ptr[I]; }
    std::uint32_t front() const { return Ptr[0]; }
    std::uint32_t size() const { return Len; }
    bool empty() const { return Len == 0; }
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
    unsigned size() const { return Last - First; }
    bool empty() const { return First == Last; }
  };

private:
  struct DepSlot {
    std::int32_t Node;
    std::uint16_t Port;
  };
  struct InstKey {
    const Instruction *I;
    std::uint32_t Idx;
  };

  /// Backs every flat table below; chunks are heap-stable, so moving the
  /// graph never invalidates the raw pointers.
  BumpArena Pool;

  // Node columns (struct-of-arrays).
  PackedVector<std::uint8_t> NodeKinds;
  PackedVector<VarId> NodeVars;
  PackedVector<std::int32_t> NodeInst;   // canonical instr index or -1
  PackedVector<std::uint32_t> NodeOp;    // Use: operand index
  PackedVector<std::int32_t> NodeBlock;  // block id or -1
  PackedVector<Edge> Edges;

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
  std::uint32_t NumBlocksAtBuild = 0;
  std::uint32_t NumCFGEdges = 0;
  std::uint32_t NumVarsWithCtrl = 0;
  Instruction **InstrByIdx = nullptr;   // [instr index] -> instruction
  BasicBlock **BlockByIdx = nullptr;    // [block id] -> block
  InstKey *InstIndex = nullptr;         // sorted by pointer, for lookups

  // Lookup tables (all arena-resident, 32-bit entries, -1 == absent).
  std::int32_t *EntryOfVarTab = nullptr;   // [var] -> node
  std::int32_t *DefNodeOfInstr = nullptr;  // [instr index] -> node
  std::uint32_t *UseOff = nullptr;         // [instr index] -> UseSlots base
  std::int32_t *UseSlots = nullptr;        // per instr: numOperands()+1 slots
  std::int32_t *SwitchTab = nullptr;       // [block*vars+var] -> node
  std::int32_t *MergeTab = nullptr;        // [block*vars+var] -> node
  DepSlot *DepTab = nullptr;               // [var*cfgEdges+edge] -> (node,port)

  /// Canonical index of \p I, or -1 for instructions not in the numbered
  /// function (binary search over InstIndex).
  int instrIndex(const Instruction *I) const;

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

  unsigned numNodes() const { return NodeKinds.size(); }
  unsigned numEdges() const { return Edges.size(); }
  Node node(unsigned Id) const {
    std::int32_t II = NodeInst[Id];
    std::int32_t BI = NodeBlock[Id];
    return {NodeKind(NodeKinds[Id]), NodeVars[Id],
            II >= 0 ? InstrByIdx[II] : nullptr, NodeOp[Id],
            BI >= 0 ? BlockByIdx[BI] : nullptr};
  }
  const Edge &edge(unsigned Id) const { return Edges[Id]; }
  EdgeRange outEdges(unsigned NodeId) const {
    return {OutIdx + OutOff[NodeId], OutOff[NodeId + 1] - OutOff[NodeId]};
  }
  EdgeRange inEdges(unsigned NodeId) const {
    return {InIdx + InOff[NodeId], InOff[NodeId + 1] - InOff[NodeId]};
  }

  /// Edges of variable \p V (possibly the control variable). The builder
  /// creates edges one variable at a time in ascending variable order and
  /// the prune keeps their order, so each slice is one contiguous id
  /// range, found by binary search over the edge column.
  EdgeIdRange edgesOfVar(VarId V) const;

  /// Out-edges of (node, port) — one multiedge (tail with its heads).
  std::vector<unsigned> multiedge(unsigned NodeId, unsigned Port) const;

  /// The variable id used for control edges (== Function::numVars()).
  VarId controlVar() const { return ControlVar; }
  bool isControl(VarId V) const { return V == ControlVar; }

  /// Entry node of \p V, or -1 if pruned (variable never used).
  int entryNode(VarId V) const { return EntryOfVarTab[V]; }
  /// Def node of instruction \p I, or -1 if pruned.
  int defNode(const Instruction *I) const {
    int Idx = instrIndex(I);
    return Idx < 0 ? -1 : DefNodeOfInstr[Idx];
  }
  /// Use node for operand \p OpIdx of \p I, or -1 (non-var operand or
  /// pruned). For statements with a control use, the control use is indexed
  /// at position numOperands().
  int useNode(const Instruction *I, unsigned OpIdx) const;
  int switchNode(const BasicBlock *BB, VarId V) const {
    return SwitchTab[BB->id() * NumVarsWithCtrl + V];
  }
  int mergeNode(const BasicBlock *BB, VarId V) const {
    return MergeTab[BB->id() * NumVarsWithCtrl + V];
  }

  /// The dependence source (node, port) whose value for \p V crosses CFG
  /// edge \p EdgeId, or {-1, 0} when \p V is dead there. This is the
  /// Section 5.1 projection hook: a dependence edge from that source spans
  /// the CFG edge.
  std::pair<int, unsigned> depAtEdge(unsigned EdgeId, VarId V) const {
    const DepSlot &P = DepTab[V * NumCFGEdges + EdgeId];
    return {P.Node, unsigned(P.Port)};
  }

  const Stats &stats() const { return BuildStats; }

  /// Bytes the graph's arena currently holds (tables + CSR).
  std::uint64_t arenaBytesReserved() const { return Pool.bytesReserved(); }

  /// Renders the graph in GraphViz format (per-variable coloring).
  std::string toDot(const Function &F) const;

  /// Human-readable node label for diagnostics.
  std::string nodeLabel(const Function &F, unsigned NodeId) const;
};

} // namespace depflow

#endif // DEPFLOW_CORE_DEPFLOWGRAPH_H
