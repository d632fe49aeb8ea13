//===- sdg/SystemDependenceGraph.h - Interprocedural SDG --------*- C++ -*-===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The system dependence graph (Horwitz-Reps-Binkley): per-function program
/// dependence graphs — data dependence derived from the paper's dependence
/// flow graph, control dependence from Ferrante-Ottenstein-Warren over the
/// block postdominator tree (nodeControlDependence) — stitched together at
/// call sites through explicit parameter-passing nodes:
///
///   * `Entry`      — one per function; call edges target it.
///   * `Instr`      — one per IR instruction (definitions and terminators).
///   * `FormalIn`   — one per parameter, a definition point at `Entry`.
///   * `FormalOut`  — the function's return value (first `ret` operand).
///   * `ActualIn`   — one per call-site argument.
///   * `ActualOut`  — the value a call site receives.
///   * `FormalIOIn/FormalIOOut`, `ActualIOIn/ActualIOOut` — the *io
///     pseudo-state*: `read()` consumes a stream shared by every frame, so
///     reads and calls to may-read callees both use and define an implicit
///     io variable. Threading io through parameter nodes is what makes
///     slices reproduce input-consuming behavior exactly (docs/SDG.md).
///
/// Edges: `Control` (branch → dependent, entry/call → parameter nodes),
/// `Data` (def → use, io chains included), `Call` (call instr → callee
/// entry), `ParamIn` (actual-in → formal-in), `ParamOut` (formal-out →
/// actual-out), and `Summary` (actual-in → actual-out: the callee's
/// transitive formal-in → formal-out dependence projected onto the site,
/// which lets slicing cross a call without descending).
///
/// Each function's block postdominator tree is built once per build, in
/// its PDG task: control dependence is read off it, and its immediate
/// postdominators are kept (`ipdom`) for slice extraction.
///
/// The build is scheduled over the call graph's SCC condensation on the
/// shared `obs::LevelPool` (obs/Sched.h): per-function PDGs are pool level
/// 0, embarrassingly parallel (one task per function); summary
/// computation walks condensation levels bottom-up, one pool level each,
/// the SCCs inside one level claimed concurrently. The pool's workers
/// live for the whole build. Every result lands in function- or
/// SCC-indexed slots and every counter mutation commutes, so stats and
/// counters are byte-identical for any `Jobs` value.
///
//===----------------------------------------------------------------------===//

#ifndef DEPFLOW_SDG_SYSTEMDEPENDENCEGRAPH_H
#define DEPFLOW_SDG_SYSTEMDEPENDENCEGRAPH_H

#include "sdg/CallGraph.h"

#include <vector>

namespace depflow {

struct SDGBuildOptions {
  /// Worker threads for the per-function and per-SCC phases; 0 = one per
  /// hardware thread (min 1). Clamped to the widest level. Output is
  /// byte-identical for any value.
  unsigned Jobs = 1;
};

class SystemDependenceGraph {
public:
  enum class NodeKind : std::uint8_t {
    Entry,
    Instr,
    FormalIn,
    FormalIOIn,
    FormalOut,
    FormalIOOut,
    ActualIn,
    ActualIOIn,
    ActualOut,
    ActualIOOut,
  };

  enum class EdgeKind : std::uint8_t {
    Control,
    Data,
    Call,
    ParamIn,
    ParamOut,
    Summary,
  };

  struct Node {
    NodeKind Kind;
    /// Owning function index. Actual* nodes belong to the *caller*.
    unsigned Func = 0;
    /// Instr: the instruction. Actual*: the call instruction of the site.
    const Instruction *I = nullptr;
    /// FormalIn: parameter index. ActualIn: argument index.
    /// Actual*: call-site index (CallGraph::sites() numbering) — for
    /// ActualIn both are packed: Aux = site, Aux2 = argument index.
    unsigned Aux = 0;
    unsigned Aux2 = 0;
  };

  struct Edge {
    unsigned Src;
    unsigned Dst;
    EdgeKind Kind;
  };

  struct Stats {
    unsigned Nodes = 0;
    unsigned Edges = 0;
    unsigned SummaryEdges = 0;
    unsigned CallSites = 0;
    unsigned SCCs = 0;
    unsigned Levels = 0;
    unsigned SummaryRounds = 0;
  };

  /// Builds the SDG of \p M. Requires: every function verifies
  /// (verifyFunction), is phi-free, and verifyModuleCalls(M) is clean.
  /// \p M is non-const only because the DFG builder takes Function&; the
  /// module text is not modified.
  static SystemDependenceGraph build(Module &M,
                                     const SDGBuildOptions &Opts = {});

  const Module &module() const { return *M; }

  unsigned numNodes() const { return unsigned(Nodes.size()); }
  unsigned numEdges() const { return unsigned(Edges.size()); }
  const Node &node(unsigned Id) const { return Nodes[Id]; }
  const Edge &edge(unsigned Id) const { return Edges[Id]; }
  const std::vector<unsigned> &outEdges(unsigned NodeId) const {
    return Out[NodeId];
  }
  const std::vector<unsigned> &inEdges(unsigned NodeId) const {
    return In[NodeId];
  }

  /// The Instr node of the first instruction of function \p F. A
  /// function's Instr nodes are contiguous and in block/instruction order
  /// (the DFG's canonical numbering): instruction k is node
  /// firstInstrNode(F) + k.
  unsigned firstInstrNode(unsigned F) const { return FirstInstr[F]; }
  /// The Instr node of the call of site \p Site (CallGraph::sites()
  /// numbering), which every Actual* node of the site names in `Aux`.
  unsigned callNode(unsigned Site) const { return CallNodes[Site]; }
  /// Immediate postdominator of block \p B of function \p F, or -1 (the
  /// exit block, or a block that reaches no exit), in the block-level
  /// postdominator tree the build derived control dependence from.
  int ipdom(unsigned F, unsigned B) const { return IPDom[FirstBlock[F] + B]; }

  const Stats &stats() const { return BuildStats; }

private:
  Module *M = nullptr;
  std::vector<Node> Nodes;
  std::vector<Edge> Edges;
  std::vector<std::vector<unsigned>> Out, In;

  std::vector<unsigned> FirstInstr; // per function
  std::vector<unsigned> CallNodes;  // per call site
  std::vector<unsigned> FirstBlock; // per function: its offset in IPDom
  std::vector<int> IPDom;           // per block of every function

  Stats BuildStats;
};

} // namespace depflow

#endif // DEPFLOW_SDG_SYSTEMDEPENDENCEGRAPH_H
