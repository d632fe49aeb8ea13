//===- verify/DiffOracle.cpp - Differential semantic oracle ---------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "verify/DiffOracle.h"

#include "dataflow/PRE.h"
#include "interp/Interpreter.h"
#include "ir/Parser.h"
#include "ir/Printer.h"

using namespace depflow;

namespace {

std::string renderValues(const std::vector<std::int64_t> &Values) {
  std::string S = "[";
  for (std::size_t I = 0; I != Values.size(); ++I)
    S += (I ? "," : "") + std::to_string(Values[I]);
  return S + "]";
}

} // namespace

std::vector<std::int64_t> depflow::drawOracleInputs(RNG &Rand, unsigned Len) {
  std::vector<std::int64_t> Inputs(Len);
  for (std::int64_t &V : Inputs)
    V = Rand.nextInRange(OracleOptions::InputMin, OracleOptions::InputMax);
  return Inputs;
}

bool depflow::translateExpression(const Function &From, const Function &To,
                                  Expression &Ex) {
  auto Translate = [&](Operand &O) {
    if (!O.isVar())
      return true;
    int V = To.lookupVar(From.varName(O.var()));
    if (V < 0)
      return false;
    O = Operand::var(unsigned(V));
    return true;
  };
  return Translate(Ex.Lhs) && Translate(Ex.Rhs);
}

Status depflow::diffOneExecution(const Function &Original,
                                 const Function &Transformed,
                                 const std::vector<std::int64_t> &Inputs,
                                 const OracleOptions &Opts) {
  Status S;
  ExecResult Before = runFunction(Original, Inputs, Opts.MaxSteps);
  // Passes may insert blocks and phis, so allow the transformed side a
  // proportionally larger budget before calling "it hangs" a divergence.
  ExecResult After =
      runFunction(Transformed, Inputs, Opts.MaxSteps * 4 + 1024);
  const std::string On = " on inputs " + renderValues(Inputs);

  if (Before.Trapped || After.Trapped) {
    if (Before.Trapped != After.Trapped)
      S.addError("trap divergence" + On + ": original " +
                 (Before.Trapped ? "trapped (" + Before.TrapReason + ")"
                                 : "ran") +
                 ", transformed " +
                 (After.Trapped ? "trapped (" + After.TrapReason + ")"
                                : "ran"));
    return S; // Both trapped: malformed input, nothing to compare.
  }
  if (!Before.Halted)
    return S; // Original diverges within budget; outputs are unobservable.
  if (!After.Halted) {
    S.addError("transformed function fails to halt" + On +
               " though the original halts after " +
               std::to_string(Before.Steps) + " steps");
    return S;
  }
  if (Before.Outputs != After.Outputs)
    S.addError("output mismatch" + On + ": original " +
               renderValues(Before.Outputs) + ", transformed " +
               renderValues(After.Outputs));

  if (Opts.NoNewComputationsOf)
    for (const Expression &Ex : *Opts.NoNewComputationsOf) {
      Expression OrigEx = Ex;
      std::uint64_t BeforeCount =
          translateExpression(Transformed, Original, OrigEx)
              ? Before.countOf(OrigEx)
              : 0;
      if (After.countOf(Ex) > BeforeCount)
        S.addError("transformed function computes '" +
                   printExpression(Transformed, Ex) + "' " +
                   std::to_string(After.countOf(Ex)) + " times vs " +
                   std::to_string(BeforeCount) + On +
                   " (PRE added a computation to an executed path)");
    }
  return S;
}

Status depflow::diffExecutions(const Function &Original,
                               const Function &Transformed, RNG &Rand,
                               const OracleOptions &Opts) {
  Status S;
  for (unsigned Run = 0; Run != Opts.Runs; ++Run) {
    std::vector<std::int64_t> Inputs = drawOracleInputs(Rand);
    S.append(diffOneExecution(Original, Transformed, Inputs, Opts));
    if (!S.ok()) {
      S.addError("original:\n" + printFunction(Original) + "transformed:\n" +
                 printFunction(Transformed));
      return S; // First witness is enough; keep the report small.
    }
  }
  return S;
}

Status depflow::cloneFunction(const Function &F,
                              std::unique_ptr<Function> &Out) {
  std::string Text = printFunction(F);
  ParseResult R = parseFunction(Text);
  if (!R.ok())
    return Status::error("print->parse round-trip failed: " + R.Error +
                         "\nprinted text:\n" + Text);
  Out = std::move(R.Fn);
  return Status::success();
}

std::vector<Expression> depflow::preWatchedExpressions(const Function &F) {
  return collectExpressions(F);
}
