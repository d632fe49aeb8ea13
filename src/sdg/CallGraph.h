//===- sdg/CallGraph.h - Module call graph + SCC condensation ---*- C++ -*-===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The module-level call graph: one node per function, one edge per call
/// site, plus the Tarjan SCC condensation the interprocedural analyses
/// schedule over. The condensation is emitted bottom-up (callees before
/// callers) and partitioned into *levels*: SCC level 0 calls nothing
/// outside itself, level k only calls levels < k. All SCCs of one level
/// are independent, so the SDG builder processes a level's SCCs
/// concurrently with the same fixed-pool/atomic-claim discipline as the
/// module pass pipeline — and, because every per-SCC result lands in
/// function-indexed slots, the output is byte-identical for any -j N.
///
//===----------------------------------------------------------------------===//

#ifndef DEPFLOW_SDG_CALLGRAPH_H
#define DEPFLOW_SDG_CALLGRAPH_H

#include "ir/Module.h"

#include <string>
#include <vector>

namespace depflow {

class CallGraph {
public:
  /// One textual call site: caller function index, the instruction, and
  /// the resolved callee index. Sites are numbered in module order
  /// (caller index, then block order, then instruction order), which is
  /// the canonical order every SDG table uses.
  struct Site {
    unsigned Caller = 0;
    const CallInst *Call = nullptr;
    unsigned Callee = 0;
  };

  /// Builds the call graph of \p M. Requires verifyModuleCalls(M) to be
  /// clean: every callee must resolve.
  static CallGraph build(const Module &M);

  unsigned numFunctions() const { return unsigned(Callees.size()); }

  const std::vector<Site> &sites() const { return Sites; }
  /// Site indices whose caller is function \p F, in canonical order.
  const std::vector<unsigned> &sitesOf(unsigned F) const { return SitesOf[F]; }
  /// Deduplicated callee function indices of \p F (ascending).
  const std::vector<unsigned> &calleesOf(unsigned F) const {
    return Callees[F];
  }

  // SCC condensation (Tarjan). SCC ids are in bottom-up topological
  // order: every callee of a member of SCC s lives in an SCC with id <= s.
  unsigned numSCCs() const { return unsigned(Members.size()); }
  unsigned sccOf(unsigned F) const { return SCCOf[F]; }
  /// Member function indices of \p SCC, ascending.
  const std::vector<unsigned> &members(unsigned SCC) const {
    return Members[SCC];
  }
  /// True if the SCC has more than one member or a self call.
  bool isRecursive(unsigned SCC) const { return Recursive[SCC]; }

  // Level schedule. Level 0 SCCs call only within themselves; level k
  // SCCs call only levels < k. SCCs within a level are independent.
  unsigned numLevels() const { return unsigned(Levels.size()); }
  unsigned levelOf(unsigned SCC) const { return LevelOf[SCC]; }
  /// SCC ids at \p Level, ascending.
  const std::vector<unsigned> &level(unsigned Level) const {
    return Levels[Level];
  }

  /// GraphViz rendering: functions as nodes (clustered by SCC when
  /// recursive), one edge per deduplicated caller->callee pair.
  std::string toDot() const;

private:
  const Module *M = nullptr;
  std::vector<Site> Sites;
  std::vector<std::vector<unsigned>> SitesOf;
  std::vector<std::vector<unsigned>> Callees;
  std::vector<unsigned> SCCOf;
  std::vector<std::vector<unsigned>> Members;
  std::vector<char> Recursive;
  std::vector<unsigned> LevelOf;
  std::vector<std::vector<unsigned>> Levels;
};

} // namespace depflow

#endif // DEPFLOW_SDG_CALLGRAPH_H
