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
/// flow graph, control dependence from the factored CDG machinery — stitched
/// together at call sites through explicit parameter-passing nodes:
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

#include <string>
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

  const CallGraph &callGraph() const { return CG; }
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

  // Per-function nodes (-1 when absent).
  unsigned entryNode(unsigned F) const { return EntryOf[F]; }
  int formalIn(unsigned F, unsigned Param) const {
    return FormalIns[F][Param];
  }
  int formalOut(unsigned F) const { return FormalOutOf[F]; }
  int formalIOIn(unsigned F) const { return FormalIOInOf[F]; }
  int formalIOOut(unsigned F) const { return FormalIOOutOf[F]; }

  // Per-site nodes (CallGraph::sites() numbering; -1 when absent).
  int actualIn(unsigned Site, unsigned Arg) const {
    return ActualIns[Site][Arg];
  }
  int actualOut(unsigned Site) const { return ActualOutOf[Site]; }
  int actualIOIn(unsigned Site) const { return ActualIOInOf[Site]; }
  int actualIOOut(unsigned Site) const { return ActualIOOutOf[Site]; }

  /// The Instr node of \p I (which must belong to function \p F), or -1.
  int instrNode(unsigned F, const Instruction *I) const;

  /// True if \p F contains a read() or transitively calls one.
  bool mayRead(unsigned F) const { return MayRead[F] != 0; }

  const Stats &stats() const { return BuildStats; }

  static const char *nodeKindName(NodeKind K);
  static const char *edgeKindName(EdgeKind K);

  /// Human-readable node label for diagnostics and dot output.
  std::string nodeLabel(unsigned Id) const;

  /// GraphViz rendering (functions as clusters, edge kind styling).
  std::string toDot() const;

private:
  Module *M = nullptr;
  CallGraph CG;
  std::vector<Node> Nodes;
  std::vector<Edge> Edges;
  std::vector<std::vector<unsigned>> Out, In;

  std::vector<unsigned> EntryOf;
  std::vector<std::vector<int>> FormalIns;
  std::vector<int> FormalOutOf, FormalIOInOf, FormalIOOutOf;
  std::vector<std::vector<int>> ActualIns;
  std::vector<int> ActualOutOf, ActualIOInOf, ActualIOOutOf;
  std::vector<char> MayRead;

  /// Per function: instruction pointer -> node id, sorted for lookup.
  std::vector<std::vector<std::pair<const Instruction *, unsigned>>> InstrMap;

  Stats BuildStats;

  friend class SDGBuilder;
};

} // namespace depflow

#endif // DEPFLOW_SDG_SYSTEMDEPENDENCEGRAPH_H
