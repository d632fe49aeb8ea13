//===- verify/Oracles.cpp - One copy of each differential oracle ----------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "verify/Oracles.h"

#include "dataflow/ConstantPropagation.h"
#include "dataflow/NullUseAnalysis.h"
#include "dataflow/TaintAnalysis.h"
#include "ir/Printer.h"
#include "ir/Transforms.h"
#include "ir/Verifier.h"
#include "pass/Analyses.h"
#include "sdg/Slicer.h"
#include "graph/Dominators.h"
#include "ssa/SSA.h"
#include "verify/PassVerifier.h"

#include <algorithm>

using namespace depflow;

namespace {

/// Input-vector length of the client oracles: shorter than diffExecutions'
/// vectors, and fixed, since every seeded fuzz report depends on it.
constexpr unsigned ClientInputLen = 8;

/// True when the dense fixpoint proves some executable block can never
/// reach the exit: the walk follows only branch sides the dense predicate
/// values allow, and any dense-executable block left outside the
/// reaches-exit set marks a provably divergent region.
template <typename Result>
bool denseProvesDivergence(const Function &F, const Result &Dense) {
  const BasicBlock *Exit = F.exit();
  if (!Exit || Exit->id() >= Dense.ExecutableBlock.size() ||
      !Dense.ExecutableBlock[Exit->id()])
    return true;
  // Gated successor sets of the dense-executable blocks.
  const unsigned N = F.numBlocks();
  std::vector<std::vector<unsigned>> Succ(N);
  for (const auto &BB : F.blocks()) {
    if (!Dense.ExecutableBlock[BB->id()])
      continue;
    const Instruction *Term = BB->terminator();
    if (const auto *Br = dyn_cast<CondBrInst>(Term)) {
      bool MayTrue = true, MayFalse = true;
      if (Br->cond().isImm()) {
        MayTrue = Br->cond().imm() != 0;
        MayFalse = !MayTrue;
      } else {
        typename Result::Value Pred =
            Dense.row(Dense.terminatorRow(BB.get()))[0];
        MayTrue = Pred.mayBeTrue();
        MayFalse = Pred.mayBeFalse();
      }
      if (MayTrue)
        Succ[BB->id()].push_back(Br->trueTarget()->id());
      if (MayFalse)
        Succ[BB->id()].push_back(Br->falseTarget()->id());
    } else if (const auto *J = dyn_cast<JumpInst>(Term)) {
      Succ[BB->id()].push_back(J->target()->id());
    }
  }
  // Backward fixpoint: which blocks reach the exit through gated edges?
  std::vector<bool> Reaches(N, false);
  Reaches[Exit->id()] = true;
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (unsigned B = 0; B != N; ++B) {
      if (Reaches[B])
        continue;
      for (unsigned S : Succ[B])
        if (Reaches[S]) {
          Reaches[B] = Changed = true;
          break;
        }
    }
  }
  for (unsigned B = 0; B != N; ++B)
    if (Dense.ExecutableBlock[B] && !Reaches[B])
      return true;
  return false;
}

/// Solves \p F with \p Run in both evaluation modes and compares them; the
/// sparse solution is left in \p Sparse for the follow-on oracles.
template <typename Result, typename RunFn>
Status solveAndCompare(Function &F, const DepFlowGraph &G, RunFn Run,
                       const char *Name, Result &Sparse) {
  Result Dense;
  Status S = Run(F, &G, EvalMode::SparseDFG, Sparse);
  if (S.ok())
    S = Run(F, nullptr, EvalMode::DenseCFG, Dense);
  return S.ok() ? compareEvalModes(F, Sparse, Dense, Name) : S;
}

/// Interprets \p F on random inputs and requires every dynamically entered
/// block to be statically executable (the analyses over-approximate
/// execution: parameters and read() are top).
template <typename Result>
Status checkInterpExecutability(const Function &F, const Result &R,
                                RNG &Rand, const OracleOptions &Opts,
                                const char *Name) {
  Status Out;
  for (unsigned Run = 0; Run != Opts.Runs && Out.ok(); ++Run) {
    ExecResult E =
        runFunction(F, drawOracleInputs(Rand, ClientInputLen), Opts.MaxSteps);
    if (E.Trapped)
      continue; // Verified programs never trap; stay total regardless.
    for (unsigned B = 0; B != F.numBlocks() && Out.ok(); ++B)
      if (B < E.BlockCounts.size() && E.BlockCounts[B] &&
          !(B < R.ExecutableBlock.size() && R.ExecutableBlock[B]))
        Out.addError(std::string(Name) + ": the interpreter entered block b" +
                     std::to_string(B) +
                     " but the analysis marked it non-executable (unsound "
                     "dead-path pruning)");
  }
  return Out;
}

/// range vs constprop: interval analysis refines constant propagation, so
/// wherever constprop proves a use is the constant c, the (reachable)
/// interval must contain c (the interval transfer functions fold
/// point×point through the same evalBinOp).
Status checkRangeConstpropConsistency(Function &F, const DepFlowGraph &G,
                                      const RangeResult &R) {
  ConstPropResult CP;
  Status S = runConstantPropagation(F, &G, EvalMode::SparseDFG, CP);
  if (!S.ok())
    return S;
  Status Out;
  std::uint32_t Row = 0;
  for (const auto &BB : F.blocks())
    for (const auto &I : BB->instructions()) {
      const ConstVal *CPVals = CP.row(Row);
      const IntervalVal *RVals = R.row(Row++);
      for (unsigned Op = 0; Op != I->numOperands() && Out.ok(); ++Op) {
        if (!I->operand(Op).isVar())
          continue;
        ConstVal C = CPVals[Op];
        if (!C.isConst())
          continue;
        IntervalVal V = RVals[Op];
        if (!V.isBottom() &&
            !IntervalVal::point(C.value()).containedIn(V))
          Out.addError("range: constprop pins operand " +
                       std::to_string(Op) + " in block b" +
                       std::to_string(BB->id()) + " to " +
                       std::to_string((long long)C.value()) +
                       " but the interval " + V.str() +
                       " excludes that value");
      }
    }
  return Out;
}

/// taint: no parameters, no read(), and no calls means no source, so
/// nothing may be tainted. (A call result is a source: the callee may
/// read(), and the intraprocedural lattice conservatively taints it —
/// see dataflow/Lattice.h.)
Status checkTaintNoSource(const Function &F, const TaintResult &R) {
  if (!F.params().empty())
    return Status::success();
  for (const auto &BB : F.blocks())
    for (const auto &I : BB->instructions())
      if (isa<ReadInst>(I.get()) || isa<CallInst>(I.get()))
        return Status::success();
  Status Out;
  std::uint32_t Row = 0;
  for (const auto &BB : F.blocks())
    for (const auto &I : BB->instructions()) {
      const TaintVal *Vals = R.row(Row++);
      for (unsigned Op = 0; Op != I->numOperands() && Out.ok(); ++Op)
        if (I->operand(Op).isVar() && Vals[Op].isTainted())
          Out.addError("taint: operand " + std::to_string(Op) +
                       " in block b" + std::to_string(BB->id()) +
                       " is flagged tainted in a function with no taint "
                       "source (no parameters, no read())");
    }
  return Out;
}

/// The client-oracle bundle for analysis pass \p P over \p F. Builds its
/// own manager so a stale cached DFG (e.g. after the fuzzer's
/// --inject-bug mutates an operand) can never leak in.
Status checkClientOracles(Function &F, PassId P, RNG &Rand,
                          const OracleOptions &Opts) {
  FunctionAnalysisManager AM(F);
  const DepFlowGraph &G = AM.getResult<DFGAnalysis>();
  if (P == PassId::Range) {
    RangeResult R;
    Status S = solveAndCompare(F, G, runRangeAnalysis, "range", R);
    if (S.ok())
      S = checkInterpExecutability(F, R, Rand, Opts, "range");
    if (S.ok())
      S = checkRangeContainsOutputs(F, R, Rand, Opts);
    return S.ok() ? checkRangeConstpropConsistency(F, G, R) : S;
  }
  if (P == PassId::Taint) {
    TaintResult R;
    Status S = solveAndCompare(F, G, runTaintAnalysis, "taint", R);
    if (S.ok())
      S = checkInterpExecutability(F, R, Rand, Opts, "taint");
    return S.ok() ? checkTaintNoSource(F, R) : S;
  }
  NullUseResult R;
  Status S = solveAndCompare(F, G, runNullUseAnalysis, "nulluse", R);
  return S.ok() ? checkInterpExecutability(F, R, Rand, Opts, "nulluse") : S;
}

std::string renderTrace(const std::vector<std::int64_t> &T) {
  std::string S = "[";
  for (std::size_t I = 0; I != T.size(); ++I) {
    if (I)
      S += ' ';
    S += std::to_string((long long)T[I]);
  }
  return S + "]";
}

} // namespace

template <typename Result>
Status depflow::compareEvalModes(const Function &F, const Result &Sparse,
                                 const Result &Dense, const char *Name) {
  const bool Divergent = denseProvesDivergence(F, Dense);
  Status Out;
  for (unsigned B = 0; B != F.numBlocks() && Out.ok(); ++B) {
    if (Sparse.ExecutableBlock[B] == Dense.ExecutableBlock[B])
      continue;
    if (Divergent && Sparse.ExecutableBlock[B])
      continue; // Termination-optimism may only widen executability.
    Out.addError(std::string(Name) +
                 ": sparse-DFG and dense-CFG modes disagree on the "
                 "executability of block b" +
                 std::to_string(B) +
                 (Divergent ? " (sparse dropped a dense-executable block"
                              " on a divergent program)"
                            : ""));
  }
  std::uint32_t Row = 0;
  for (const auto &BB : F.blocks())
    for (const auto &I : BB->instructions()) {
      const typename Result::Value *SVals = Sparse.row(Row);
      const typename Result::Value *DVals = Dense.row(Row++);
      for (unsigned Op = 0; Op != I->numOperands() && Out.ok(); ++Op) {
        if (!I->operand(Op).isVar())
          continue;
        typename Result::Value SV = SVals[Op];
        typename Result::Value DV = DVals[Op];
        if (Result::Value::equal(SV, DV))
          continue;
        if (Divergent && Result::Value::equal(DV.meet(SV), SV))
          continue; // DV ⊑ SV: sound widening past a divergent region.
        Out.addError(std::string(Name) + ": sparse-DFG value " + SV.str() +
                     (Divergent ? " fails to contain dense-CFG value "
                                : " != dense-CFG value ") +
                     DV.str() + " at operand " + std::to_string(Op) +
                     " in block b" + std::to_string(BB->id()));
      }
    }
  return Out;
}

template Status depflow::compareEvalModes(const Function &,
                                          const ConstPropResult &,
                                          const ConstPropResult &,
                                          const char *);
template Status depflow::compareEvalModes(const Function &,
                                          const RangeResult &,
                                          const RangeResult &, const char *);
template Status depflow::compareEvalModes(const Function &,
                                          const TaintResult &,
                                          const TaintResult &, const char *);
template Status depflow::compareEvalModes(const Function &,
                                          const NullUseResult &,
                                          const NullUseResult &,
                                          const char *);

Status depflow::checkRangeContainsOutputs(const Function &F,
                                          const RangeResult &R, RNG &Rand,
                                          const OracleOptions &Opts) {
  const Instruction *Ret = F.exit() ? F.exit()->terminator() : nullptr;
  if (!Ret || !isa<RetInst>(Ret))
    return Status::success();
  const IntervalVal *RetVals = R.row(R.terminatorRow(F.exit()));
  Status Out;
  for (unsigned Run = 0; Run != Opts.Runs && Out.ok(); ++Run) {
    ExecResult E =
        runFunction(F, drawOracleInputs(Rand, ClientInputLen), Opts.MaxSteps);
    if (!E.Halted)
      continue;
    for (unsigned Op = 0;
         Op != Ret->numOperands() && Op < E.Outputs.size() && Out.ok();
         ++Op) {
      if (!Ret->operand(Op).isVar())
        continue;
      IntervalVal V = RetVals[Op];
      if (V.isBottom())
        Out.addError("range: a halted execution reached ret operand " +
                     std::to_string(Op) +
                     " but the analysis computed _|_ for it");
      else if (!IntervalVal::point(E.Outputs[Op]).containedIn(V))
        Out.addError("range: observed output " +
                     std::to_string((long long)E.Outputs[Op]) +
                     " falls outside the computed interval " + V.str() +
                     " for ret operand " + std::to_string(Op));
    }
  }
  return Out;
}

namespace {

/// The variables placed at each block, one line per block that differs.
std::string placementDiff(const Function &F, const PhiPlacement &Cytron,
                          const PhiPlacement &FromDFG) {
  auto Names = [&](std::span<const VarId> Vars) {
    std::string S;
    for (VarId V : Vars)
      S += " " + F.varName(V);
    return S.empty() ? std::string(" (none)") : S;
  };
  std::string Diff;
  for (unsigned B = 0; B != F.numBlocks(); ++B)
    if (!std::ranges::equal(Cytron[B], FromDFG[B]))
      Diff += "  " + F.block(B)->label() + ": cytron" + Names(Cytron[B]) +
              "; dfg" + Names(FromDFG[B]) + "\n";
  return Diff;
}

/// True if the reachable CFG of \p F stays acyclic once the edges into a
/// dominator of their source (the loop back edges) are removed: every
/// cycle is entered through one block.
bool isReducible(const Function &F, const DomTree &DT) {
  std::vector<unsigned> Indeg(F.numBlocks(), 0), Ready;
  for (const auto &BB : F.blocks())
    if (DT.isReachable(BB->id()))
      for (const BasicBlock *S : BB->successors())
        Indeg[S->id()] += !DT.dominates(S->id(), BB->id());
  Ready.push_back(F.entry()->id());
  unsigned Done = 0;
  while (!Ready.empty()) {
    const BasicBlock *BB = F.block(Ready.back());
    Ready.pop_back();
    ++Done;
    for (const BasicBlock *S : BB->successors())
      if (!DT.dominates(S->id(), BB->id()) && --Indeg[S->id()] == 0)
        Ready.push_back(S->id());
  }
  unsigned Reachable = 0;
  for (unsigned B = 0; B != F.numBlocks(); ++B)
    Reachable += DT.isReachable(B);
  return Done == Reachable;
}

} // namespace

Status depflow::checkPhiPlacement(const Function &F,
                                  const Function *Renamed) {
  std::unique_ptr<Function> Clone;
  if (Status S = cloneFunction(F, Clone); !S.ok())
    return S;
  const PhiPlacement FromDFG = dfgPhiPlacement(*Clone);
  const PhiPlacement Cytron = cytronPhiPlacement(*Clone, /*Pruned=*/true);
  bool Holds = FromDFG == Cytron;
  if (!Holds && !isReducible(*Clone, DomTree(*Clone, DomTree::Forward))) {
    Holds = true;
    for (unsigned B = 0; B != Clone->numBlocks(); ++B)
      Holds &= std::ranges::includes(FromDFG[B], Cytron[B]);
  }
  if (!Holds)
    return Status::error("phi placement: the DFG route differs from pruned "
                         "Cytron:\n" +
                         placementDiff(*Clone, Cytron, FromDFG) + "in\n" +
                         printFunction(F));
  if (!Renamed)
    return Status::success();
  if (Renamed->numBlocks() != F.numBlocks())
    return Status::error("phi placement: SSA construction changed the "
                         "block count");
  for (unsigned B = 0; B != F.numBlocks(); ++B) {
    std::size_t Phis = 0;
    for (const auto &I : Renamed->block(B)->instructions())
      Phis += isa<PhiInst>(I.get());
    if (Phis != FromDFG[B].size())
      return Status::error("phi placement: block " +
                           Renamed->block(B)->label() + " holds " +
                           std::to_string(Phis) + " phis, the placement " +
                           std::to_string(FromDFG[B].size()) + ", in\n" +
                           printFunction(*Renamed));
  }
  return Status::success();
}

Status depflow::checkPassOutput(const Function &Original,
                                Function &Transformed, PassId P,
                                std::uint64_t Seed,
                                const OracleOptions &Opts) {
  Status S = verifyPassInvariants(Transformed, P, Opts.MaxCrossCheckEdges);
  if (S.ok() &&
      (P == PassId::Range || P == PassId::Taint || P == PassId::NullUse)) {
    RNG ClientRand(Seed ^ 0x9e3779b97f4a7c15ull);
    S = checkClientOracles(Transformed, P, ClientRand, Opts);
  }
  if (S.ok() && P == PassId::SSADfg)
    S = checkPhiPlacement(Original, &Transformed);
  if (!S.ok())
    return S;

  // PRE's "never adds a computation" claim, watched in the transformed
  // function's numbering.
  std::vector<Expression> Watched;
  OracleOptions OO = Opts;
  OO.NoNewComputationsOf = nullptr;
  if (P == PassId::PRE || P == PassId::PREBusy) {
    for (Expression Ex : preWatchedExpressions(Original))
      if (translateExpression(Original, Transformed, Ex))
        Watched.push_back(Ex);
    OO.NoNewComputationsOf = &Watched;
  }
  RNG Rand(Seed);
  return diffExecutions(Original, Transformed, Rand, OO);
}

namespace {

/// Every block's successor ids, in block order.
std::vector<std::vector<unsigned>> successorLists(const Function &F) {
  std::vector<std::vector<unsigned>> Lists;
  for (const auto &BB : F.blocks()) {
    Lists.emplace_back();
    for (const BasicBlock *S : BB->successors())
      Lists.back().push_back(S->id());
  }
  return Lists;
}

} // namespace

Status depflow::checkReportedChange(const Function &Before,
                                    const Function &After, PassId P,
                                    const PreservedAnalyses &PA) {
  std::unique_ptr<Function> Split;
  if (P == PassId::PRE || P == PassId::PREBusy) {
    if (Status S = cloneFunction(Before, Split); !S.ok())
      return S;
    splitCriticalEdges(*Split);
  }
  const std::string AfterText = printFunction(After);
  const bool SameText = printFunction(Before) == AfterText;
  const bool SameShape =
      successorLists(Split ? *Split : Before) == successorLists(After);
  PreservedAnalyses Expected =
      SameShape ? preserveCFGShapeAnalyses() : PreservedAnalyses::none();
  if (SameShape && Split && printFunction(*Split) == AfterText)
    Expected.preserve<DFGAnalysis>();
  if (SameText ? PA.preservesAll() : PA == Expected)
    return Status::success();
  return Status::error(std::string("pass --") + passName(P) +
                       ": reported preserved analyses do not match its "
                       "change (text " +
                       (SameText ? "unchanged" : "changed") +
                       ", successor lists " +
                       (SameShape ? "unchanged" : "changed") + ")");
}

Status depflow::checkSliceExecution(Module &M,
                                    const std::vector<std::int64_t> &Inputs,
                                    const ModuleExecOptions &EO,
                                    const std::vector<std::int64_t> &Expected,
                                    unsigned Jobs,
                                    std::unique_ptr<Module> *Sliced) {
  SDGBuildOptions SO;
  SO.Jobs = Jobs;
  SystemDependenceGraph G = SystemDependenceGraph::build(M, SO);
  std::vector<unsigned> Nodes;
  Status RS = resolveCriterion(G, {EO.WatchFunc, EO.WatchLine}, Nodes);
  if (!RS.ok())
    return Status::error("criterion failed to resolve: " + RS.str());
  std::unique_ptr<Module> Slice = extractBackwardSlice(
      M, G, sliceSDG(G, Nodes, SliceDirection::Backward));

  Status S;
  std::string VerifierErrs;
  for (const auto &F : Slice->functions())
    for (const std::string &E : verifyFunction(*F))
      VerifierErrs += "  " + F->name() + ": " + E + "\n";
  if (!VerifierErrs.empty()) {
    S.addError("extracted slice fails the verifier:\n" + VerifierErrs +
               "--- slice ---\n" + printModule(*Slice));
  } else {
    ExecResult Got = runModule(*Slice, *Slice->function(0), Inputs, EO);
    if (!Got.Halted)
      S.addError("sliced module did not halt (" + Got.status().str() +
                 ") though the original did\n--- slice ---\n" +
                 printModule(*Slice));
    else if (Got.WatchTrace != Expected)
      S.addError("watch trace diverges at the criterion:\n  original " +
                 renderTrace(Expected) + "\n  sliced   " +
                 renderTrace(Got.WatchTrace) + "\n--- slice ---\n" +
                 printModule(*Slice));
  }
  if (Sliced)
    *Sliced = std::move(Slice);
  return S;
}
