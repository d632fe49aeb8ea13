//===- ir/Verifier.h - IR well-formedness checks ----------------*- C++ -*-===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Enforces Definition 1 of the paper (a proper control flow graph) plus IR
/// structural sanity:
///   * every block ends in exactly one terminator;
///   * exactly one block ends in `ret` (the CFG's `end`);
///   * the entry has no predecessors; `end` has no successors;
///   * every block is reachable from entry and reaches `end`;
///   * a conditional branch has two distinct targets (a degenerate branch
///     must be canonicalized to a jump);
///   * phi incoming blocks exactly match the block's predecessors.
///
//===----------------------------------------------------------------------===//

#ifndef DEPFLOW_IR_VERIFIER_H
#define DEPFLOW_IR_VERIFIER_H

#include "ir/Module.h"

#include <string>
#include <vector>

namespace depflow {

/// Returns all well-formedness violations (empty means the function is a
/// valid CFG in the paper's sense). Requires predecessors to be current;
/// recomputes them itself for safety.
std::vector<std::string> verifyFunction(Function &F);

/// Convenience: true iff verifyFunction reports no problems.
bool isWellFormed(Function &F);

/// Sets, in \p Seen (one flag per block id), every block reachable from
/// \p Root following successor edges, or predecessor edges if
/// \p Backward (which needs current predecessors).
void markReachable(const Function &F, BasicBlock *Root, bool Backward,
                   std::vector<bool> &Seen);

/// Def-use hygiene checks, reported separately from verifyFunction because
/// the IR gives every variable an implicit 0 at entry, so both conditions
/// are legal — but in hand-written programs they usually indicate a typo:
///   * a variable that is read somewhere but never assigned by any
///     instruction and is not a parameter;
///   * a use that some entry path reaches before any assignment
///     (a "maybe reads the implicit 0" use), found by intersecting
///     definitely-assigned sets over predecessors.
/// Drivers print these as warnings by default and may escalate them to
/// errors under a strict mode. Requires \p F to pass verifyFunction.
std::vector<std::string> verifyDefUseHygiene(Function &F);

/// Module-level call invariants (the parser enforces the same rules on
/// textual input; this covers programmatically built or transformed
/// modules):
///   * every `call` names a function that exists in the module;
///   * the argument count matches the callee's parameter count;
///   * a function containing calls contains no phis — calls are a base-IR
///     construct and interprocedural analysis (src/sdg) runs before SSA
///     separation, so SSA-form functions must be call-free.
std::vector<std::string> verifyModuleCalls(const Module &M);

} // namespace depflow

#endif // DEPFLOW_IR_VERIFIER_H
