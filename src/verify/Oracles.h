//===- verify/Oracles.h - One copy of each differential oracle --*- C++ -*-===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The oracles depflow checks its analyses and transforms against, each in
/// exactly one place. depflow-fuzz and the unit tests call these rather
/// than re-assembling the checks:
///
///  * `checkPassOutput` — the per-pass check: structural invariants
///    (verify/PassVerifier.h), the client oracles for the analysis passes,
///    then the differential semantic oracle (verify/DiffOracle.h).
///  * `checkReportedChange` — a pass's report of what it changed (its
///    PreservedAnalyses) against the printed text and successor lists.
///  * `compareEvalModes` — the paper's claim that evaluating over the DFG
///    gives the CFG's solution, for one client result.
///  * `checkRangeContainsOutputs` — observed outputs lie inside the
///    intervals range analysis computed for them.
///  * `checkPhiPlacement` — the paper's Section 3.3 claim that the DFG's
///    surviving merges are exactly the φs of pruned SSA form.
///  * `checkSliceExecution` — an extracted backward slice reproduces the
///    original's observations at its criterion: the CFG≡PDG semantics of
///    Ito (arXiv 1803.02976) made executable.
///
//===----------------------------------------------------------------------===//

#ifndef DEPFLOW_VERIFY_ORACLES_H
#define DEPFLOW_VERIFY_ORACLES_H

#include "dataflow/RangeAnalysis.h"
#include "interp/Interpreter.h"
#include "pass/Analyses.h"
#include "pass/Pass.h"
#include "verify/DiffOracle.h"

namespace depflow {

/// Requires the sparse-DFG solution \p Sparse of a forward client (\p Name
/// prefixes every diagnostic) to equal the dense-CFG solution \p Dense:
/// executable blocks and the lattice value at every variable operand. Both
/// modes meet at the same confluence points over finite-height lattices,
/// so this is equality, with one carve-out. Region bypassing is
/// termination-optimistic (EXPERIMENTS.md, "Substitutions and
/// deviations"): when the dense solution proves an executable region can
/// never reach the exit, the bypass routes values around it as if it
/// completed. On exactly those programs the sparse solution need only
/// contain the dense one (dense ⊑ sparse). Both results must be solutions
/// of \p F as it stands: their rows are read in \p F's canonical order.
/// Instantiated for the results of constprop, range, taint and nulluse.
template <typename Result>
Status compareEvalModes(const Function &F, const Result &Sparse,
                        const Result &Dense, const char *Name);

/// Interprets \p F on `Opts.Runs` random input vectors from \p Rand and
/// requires every halted run's output to lie inside the interval \p R
/// computed for the corresponding ret operand; a ret operand a halted run
/// reaches cannot be ⊥. \p R must be a solution of \p F as it stands.
Status checkRangeContainsOutputs(const Function &F, const RangeResult &R,
                                 RNG &Rand, const OracleOptions &Opts = {});

/// Requires the DFG route's φ placement on the phi-free \p F
/// (`dfgPhiPlacement`, read off the routing plan) to equal pruned Cytron's
/// block for block, and, when \p Renamed is given (the output of the
/// `ssa-dfg` pass on \p F), each block of \p Renamed to hold exactly as
/// many φs as the placement puts there. \p F is left unchanged.
///
/// Equality is the property on reducible CFGs. On an irreducible one the
/// route's pessimistic trivial-φ collapse can keep a cycle of merges that
/// pass one value around (two loop entries, no def inside), which pruned
/// Cytron does not place; there the check requires only that every
/// Cytron φ is placed too.
Status checkPhiPlacement(const Function &F,
                         const Function *Renamed = nullptr);

/// The checked pipeline's verdict on \p Transformed, the output of pass
/// \p P on \p Original. Runs, stopping at the first failing stage:
///  1. verifyPassInvariants(Transformed, P, Opts.MaxCrossCheckEdges);
///  2. for range, taint and nulluse: sparse/dense agreement, interpreter
///     executability soundness, and the per-client checks (range outputs
///     and constprop consistency; no taint without a source); for ssa-dfg:
///     checkPhiPlacement(Original, &Transformed);
///  3. diffExecutions(Original, Transformed), for PRE passes also
///     watching every PRE candidate expression of \p Original.
/// \p Seed fixes every random input; Opts.NoNewComputationsOf is ignored.
Status checkPassOutput(const Function &Original, Function &Transformed,
                       PassId P, std::uint64_t Seed,
                       const OracleOptions &Opts = {});

/// Holds pass \p P's report \p PA of what it changed in turning \p Before
/// into \p After against the functions themselves:
///  * the printed text is unchanged exactly when \p PA preserves all;
///  * otherwise \p PA is preserveCFGShapeAnalyses() when every block's
///    successor list is unchanged and PreservedAnalyses::none() when not,
///    so exactly the ShapeOnly analyses survive a shape-keeping change. PRE passes
///    split critical edges first and judge their shape after the split,
///    so for them the lists are compared with \p Before's after
///    splitCriticalEdges on a clone;
///  * an instruction-holding analysis (the DFG) survives too exactly when
///    \p After's text equals that split clone's: a PRE pass that split
///    edges but moved nothing computed its DFG on the function it returns.
Status checkReportedChange(const Function &Before, const Function &After,
                           PassId P, const PreservedAnalyses &PA);

/// The executable-slice check. Builds the SDG of \p M with \p Jobs
/// workers, backward-slices on the criterion \p EO watches
/// (`WatchFunc:WatchLine`), extracts the slice and verifies it, runs it
/// from its first function on \p Inputs under \p EO, and requires it to
/// halt with the watch trace \p Expected — the original's, from a halted
/// run on the same inputs. \p Sliced, when non-null, receives the slice.
Status checkSliceExecution(Module &M, const std::vector<std::int64_t> &Inputs,
                           const ModuleExecOptions &EO,
                           const std::vector<std::int64_t> &Expected,
                           unsigned Jobs = 1,
                           std::unique_ptr<Module> *Sliced = nullptr);

} // namespace depflow

#endif // DEPFLOW_VERIFY_ORACLES_H
