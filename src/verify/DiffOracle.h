//===- verify/DiffOracle.h - Differential semantic oracle -------*- C++ -*-===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The semantic oracle behind depflow-fuzz: run the reference interpreter
/// on the original and the transformed function over randomized input
/// vectors and compare observable behaviour — outputs, halting, and traps.
/// Optionally also enforces the paper's Section 5.2 guarantee that PRE
/// never adds a dynamic evaluation of the optimized expression to any
/// executed path.
///
/// Input vectors are drawn from a small biased range so branches flip,
/// loops terminate early, and division by zero is exercised; the same
/// vector feeds both sides (parameters first, then read()).
///
//===----------------------------------------------------------------------===//

#ifndef DEPFLOW_VERIFY_DIFFORACLE_H
#define DEPFLOW_VERIFY_DIFFORACLE_H

#include "ir/Expression.h"
#include "ir/Function.h"
#include "support/Error.h"
#include "support/RNG.h"

#include <memory>
#include <vector>

namespace depflow {

struct OracleOptions {
  /// Number of random input vectors to compare per pair.
  unsigned Runs = 8;
  /// Step budget for the original; the transformed side gets a multiple
  /// (transforms may add blocks/phis, so step counts differ legally).
  std::uint64_t MaxSteps = 50000;
  /// When non-null, also check the transformed side never evaluates any of
  /// these expressions more often than the original on the same input
  /// (the PRE "never adds a computation to any path" claim). Expressions
  /// are in the *transformed* function's variable numbering; the oracle
  /// translates them onto the original by variable name, since clones made
  /// by print->parse may number variables differently.
  const std::vector<Expression> *NoNewComputationsOf = nullptr;
  /// checkPassOutput skips the brute-force structure cross-checks above
  /// this many CFG edges (the verifyPassInvariants cap).
  unsigned MaxCrossCheckEdges = 600;

  /// Length of each input vector (parameters + read()s), and the inclusive
  /// range inputs are drawn from: small and straddling zero so conditions
  /// flip and x/0 and x==c corner cases occur.
  static constexpr unsigned InputLen = 10;
  static constexpr std::int64_t InputMin = -4, InputMax = 9;
};

/// \p Len values drawn in order from [InputMin, InputMax]: the one input
/// distribution every interpreter-backed oracle uses.
std::vector<std::int64_t>
drawOracleInputs(RNG &Rand, unsigned Len = OracleOptions::InputLen);

/// Compares \p Original and \p Transformed over randomized executions.
/// Diagnostics name the inputs that witnessed the divergence, so a failure
/// is reproducible without the RNG state.
Status diffExecutions(const Function &Original, const Function &Transformed,
                      RNG &Rand, const OracleOptions &Opts = {});

/// One comparison on a fixed input vector (the reducer re-checks candidate
/// programs with the witness inputs from a failed diffExecutions).
Status diffOneExecution(const Function &Original, const Function &Transformed,
                        const std::vector<std::int64_t> &Inputs,
                        const OracleOptions &Opts = {});

/// Clones \p F by printing and re-parsing it (the IR round-trips by
/// construction; a failure to do so is itself a bug and yields an error).
/// Variable *ids* may be renumbered; names and semantics are preserved.
/// This is how the fuzzer gets a pristine original to diff against.
Status cloneFunction(const Function &F, std::unique_ptr<Function> &Out);

/// Re-keys \p Ex from \p From's variable numbering onto \p To's, matching
/// variables by name. Returns false if a variable does not exist in \p To
/// (then \p To cannot compute the expression at all).
bool translateExpression(const Function &From, const Function &To,
                         Expression &Ex);

/// The binary expressions of \p F eligible for PRE — what the oracle
/// watches for the "never adds a computation" guarantee
/// (OracleOptions::NoNewComputationsOf).
std::vector<Expression> preWatchedExpressions(const Function &F);

} // namespace depflow

#endif // DEPFLOW_VERIFY_DIFFORACLE_H
