//===- tools/depflow-fuzz.cpp - Differential pass fuzzer ------------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
// Usage: depflow-fuzz [options]
//
//   --seed N        master seed (default 1); every run is a pure function
//                   of the seed, so any report reproduces from it
//   --iters N       number of fuzz iterations (default 1000)
//   --pass NAME     fuzz only this pass (separate, constprop, constprop-cfg,
//                   pre, pre-busy, range, taint, nulluse, ssa, ssa-dfg);
//                   default: all of them. The three analysis passes run
//                   extra differential oracles: sparse-DFG vs dense-CFG
//                   result equality, interpreter executability soundness,
//                   interval containment of observed outputs, and
//                   cross-analysis consistency against constprop
//   --runs N        oracle executions per program/pass pair (default 6)
//   --max-edges N   brute-force cross-check cap (default 600)
//   --no-mutate     disable the structured mutator (generator output only)
//   --no-modules    disable the multi-function module checks
//   --inject-bug    deliberately corrupt each pass's output, to demonstrate
//                   the oracle catches and reduces a miscompile
//   --emit-module N print a generated module of N functions (seeded by
//                   --seed) to stdout and exit — the CI input for
//                   `depflow-opt -j` smoke runs (TSan in particular)
//   --stats-json FILE  write the machine-readable statistics report after
//                   the run (schema "depflow-stats"): the cumulative
//                   algorithm counters over every generated program
//   --max-interp-steps N  interpreter fuel per oracle execution
//                   (default 50000; the library default is 1000000)
//   --fault-sweep   robustness mode: re-run every generated module once
//                   per registered fault point under --keep-going
//                   semantics, asserting no crash, no stale point (armed
//                   but never fired), failed functions restored to their
//                   original text, and clean functions byte-identical to
//                   the fault-free run — at -j 1 and -j 4 alternately
//   --fault-sweep-extra SPEC  append one more fault spec to the sweep's
//                   case list (repeatable); a spec that never fires fails
//                   the sweep, which is how CI proves stale-point
//                   detection works
//   -v              print a progress line every 100 iterations
//
// Each iteration generates a random program (one of six CFG families),
// optionally applies a structured mutation (edge rewiring, instruction
// insertion/deletion, constant perturbation), then for every pass under
// test clones the program, runs the pass, and hands the result to the
// library's per-pass check (checkPassOutput, src/verify/Oracles.h):
// structural invariants, the client oracles of the analysis passes, and
// original vs. transformed behaviour on random inputs. Any violation is
// greedily reduced to a small textual-IR reproducer.
//
// Every few iterations the fuzzer additionally assembles a multi-function
// module and runs the parallel pipeline driver over it twice — serially
// and on a thread pool — requiring byte-identical printed modules and
// identical per-function analysis counters (the -j determinism contract).
//
// Exit codes: 0 = no violations, 1 = violations found, 2 = usage error.
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "obs/EventLog.h"
#include "obs/StatsJson.h"
#include "pass/Analyses.h"
#include "pass/ModulePipeline.h"
#include "pass/PassPipeline.h"
#include "support/FaultInjection.h"
#include "support/RNG.h"
#include "support/Statistic.h"
#include "verify/Oracles.h"
#include "workload/Generators.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

using namespace depflow;

namespace {

struct FuzzOptions {
  std::uint64_t Seed = 1;
  unsigned Iters = 1000;
  std::vector<PassId> Passes;
  OracleOptions Oracle{.Runs = 6}; // --runs, --max-edges, --max-interp-steps
  bool Mutate = true;
  bool Modules = true;
  bool InjectBug = false;
  bool Verbose = false;
  unsigned EmitModule = 0; // Nonzero: print a module of N functions, exit.
  std::string StatsJson;   // --stats-json destination; empty = disabled.
  std::uint64_t SliceMaxSteps = 200000; // --max-interp-steps, slice mode.
  bool FaultSweep = false;
  std::vector<std::string> SweepExtras; // --fault-sweep-extra specs.
  bool SliceOracle = false;             // --slice-oracle mode.
};

int usage() {
  std::fprintf(stderr,
               "usage: depflow-fuzz [--seed N] [--iters N] [--pass NAME]\n"
               "                    [--runs N] [--max-edges N] [--no-mutate]\n"
               "                    [--no-modules] [--inject-bug]\n"
               "                    [--emit-module N] [--stats-json FILE]\n"
               "                    [--max-interp-steps N] [--fault-sweep]\n"
               "                    [--fault-sweep-extra SPEC]\n"
               "                    [--slice-oracle] [-v]\n");
  return 2;
}

bool parseArgs(int Argc, char **Argv, FuzzOptions &O) {
  constexpr std::uint64_t U32Max = std::numeric_limits<unsigned>::max();
  constexpr std::uint64_t U64Max = std::numeric_limits<std::uint64_t>::max();
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    // A numeric value is all decimal digits and at most Max; anything else
    // is reported and falls through to the usage error.
    auto NextNum = [&](std::uint64_t &Out, std::uint64_t Max) {
      if (I + 1 >= Argc)
        return false;
      const char *Text = Argv[++I];
      char *End = nullptr;
      errno = 0;
      Out = std::strtoull(Text, &End, 10);
      if (!std::isdigit((unsigned char)Text[0]) || *End || errno == ERANGE ||
          Out > Max) {
        std::fprintf(stderr, "error: bad %s value '%s'\n", A.c_str(), Text);
        return false;
      }
      return true;
    };
    std::uint64_t N = 0;
    if (A == "--seed" && NextNum(N, U64Max))
      O.Seed = N;
    else if (A == "--iters" && NextNum(N, U32Max))
      O.Iters = unsigned(N);
    else if (A == "--runs" && NextNum(N, U32Max))
      O.Oracle.Runs = unsigned(N);
    else if (A == "--max-edges" && NextNum(N, U32Max))
      O.Oracle.MaxCrossCheckEdges = unsigned(N);
    else if (A == "--pass") {
      if (I + 1 >= Argc)
        return false;
      auto P = passByName(Argv[++I]);
      if (!P) {
        std::fprintf(stderr, "error: unknown pass '%s'\n", Argv[I]);
        return false;
      }
      O.Passes.push_back(*P);
    } else if (A == "--emit-module" && NextNum(N, U32Max))
      O.EmitModule = unsigned(N);
    else if (A == "--stats-json") {
      if (I + 1 >= Argc)
        return false;
      O.StatsJson = Argv[++I];
      if (O.StatsJson.empty())
        return false;
    }
    else if (A == "--max-interp-steps" && NextNum(N, U64Max)) {
      if (N == 0) {
        std::fprintf(stderr,
                     "error: --max-interp-steps must be positive\n");
        return false;
      }
      O.Oracle.MaxSteps = O.SliceMaxSteps = N;
    } else if (A == "--fault-sweep")
      O.FaultSweep = true;
    else if (A == "--slice-oracle")
      O.SliceOracle = true;
    else if (A == "--fault-sweep-extra") {
      if (I + 1 >= Argc)
        return false;
      FaultSpec Parsed;
      Status S = parseFaultSpec(Argv[++I], Parsed);
      if (!S.ok()) {
        std::fprintf(stderr, "error: %s\n", S.str().c_str());
        return false;
      }
      O.SweepExtras.push_back(Argv[I]);
    } else if (A == "--no-mutate")
      O.Mutate = false;
    else if (A == "--no-modules")
      O.Modules = false;
    else if (A == "--inject-bug")
      O.InjectBug = true;
    else if (A == "-v")
      O.Verbose = true;
    else
      return false;
  }
  if (O.Passes.empty())
    O.Passes = allPasses();
  return true;
}

//===----------------------------------------------------------------------===//
// Structured mutator. Mutations may break well-formedness; the caller
// re-verifies and skips programs that no longer verify (exercising the
// verifier's own totality on the way).
//===----------------------------------------------------------------------===//

Operand randomOperand(Function &F, RNG &Rand) {
  if (F.numVars() == 0 || Rand.chance(2, 5))
    return Operand::imm(Rand.nextInRange(-3, 7));
  return Operand::var(VarId(Rand.nextBelow(F.numVars())));
}

void mutateOnce(Function &F, RNG &Rand) {
  BasicBlock *BB = F.block(unsigned(Rand.nextBelow(F.numBlocks())));
  switch (Rand.nextBelow(5)) {
  case 0: { // Constant perturbation / operand rewrite.
    if (BB->empty())
      return;
    Instruction *I =
        BB->instructions()[Rand.nextBelow(BB->size())].get();
    if (I->numOperands() == 0)
      return;
    unsigned Idx = unsigned(Rand.nextBelow(I->numOperands()));
    const Operand &Old = I->operand(Idx);
    if (Old.isImm() && Rand.chance(1, 2))
      I->setOperand(Idx, Operand::imm(Old.imm() + Rand.nextInRange(-2, 2)));
    else
      I->setOperand(Idx, randomOperand(F, Rand));
    return;
  }
  case 1: { // Insert a definition before the terminator.
    VarId Def = VarId(Rand.nextBelow(F.numVars()));
    switch (Rand.nextBelow(4)) {
    case 0:
      BB->appendCopy(Def, randomOperand(F, Rand));
      break;
    case 1:
      BB->appendUnary(Def, Rand.chance(1, 2) ? UnOp::Neg : UnOp::Not,
                      randomOperand(F, Rand));
      break;
    case 2:
      BB->appendRead(Def);
      break;
    default:
      BB->appendBinary(Def, BinOp(Rand.nextBelow(12)),
                       randomOperand(F, Rand), randomOperand(F, Rand));
      break;
    }
    return;
  }
  case 2: { // Delete a non-terminator instruction.
    if (BB->size() < 2)
      return;
    BB->removeInstruction(unsigned(Rand.nextBelow(BB->size() - 1)));
    return;
  }
  case 3: { // Rewire one branch target.
    Instruction *Term = BB->terminator();
    if (!Term || Term->blockRefs().empty())
      return;
    BasicBlock *Old = Term->blockRefs()[Rand.nextBelow(
        Term->blockRefs().size())];
    BasicBlock *New = F.block(unsigned(Rand.nextBelow(F.numBlocks())));
    Term->replaceBlockRef(Old, New);
    return;
  }
  default: { // Flip a conditional branch to an unconditional jump.
    auto *Br = dyn_cast_if_present<CondBrInst>(BB->terminator());
    if (!Br)
      return;
    BasicBlock *Target =
        Rand.chance(1, 2) ? Br->trueTarget() : Br->falseTarget();
    BB->clearTerminator();
    BB->setJump(Target);
    return;
  }
  }
}

//===----------------------------------------------------------------------===//
// The checked pipeline: clone, run pass, verify invariants, diff.
//===----------------------------------------------------------------------===//

/// Deliberately corrupts \p F by rewriting the first operand of a copy,
/// unary, or binary definition — a stand-in for a pass bug. The result
/// still passes the structural checks; only the semantic oracle sees it.
bool injectMiscompile(Function &F) {
  for (const auto &BB : F.blocks())
    for (const auto &I : BB->instructions()) {
      Instruction *Inst = I.get();
      if (Inst->kind() != Instruction::Kind::Copy &&
          Inst->kind() != Instruction::Kind::Unary &&
          Inst->kind() != Instruction::Kind::Binary)
        continue;
      const Operand &Op = Inst->operand(0);
      Inst->setOperand(0, Operand::imm(Op.isImm() ? Op.imm() + 1 : 1));
      return true;
    }
  return false;
}

/// Runs the whole checked pipeline for one (program, pass) pair. The
/// returned Status carries every diagnostic for the first failing stage.
Status checkOnePass(const Function &Original, PassId P,
                    const FuzzOptions &FO, std::uint64_t OracleSeed) {
  std::unique_ptr<Function> Clone;
  Status S = cloneFunction(Original, Clone);
  if (!S.ok())
    return S;

  // Managed execution: the fuzzer drives the same entry as the pipeline,
  // so the manager's caching/invalidation logic and the pass's report of
  // what it changed are themselves under test on every iteration.
  FunctionAnalysisManager AM(*Clone);
  PreservedAnalyses PA;
  S = runPass(*Clone, P, AM, {}, &PA);
  if (S.ok())
    S = checkReportedChange(Original, *Clone, P, PA);
  if (!S.ok())
    return S;

  if (FO.InjectBug)
    injectMiscompile(*Clone);
  return checkPassOutput(Original, *Clone, P, OracleSeed, FO.Oracle);
}

//===----------------------------------------------------------------------===//
// Greedy reducer: shrink a failing program while the pipeline still fails.
//===----------------------------------------------------------------------===//

/// Drops blocks unreachable from the entry (forward reachability only; the
/// verifier rejects candidates that lose the path to the exit). Returns
/// false if the entry or exit would be erased.
bool dropUnreachable(Function &F) {
  std::vector<bool> Keep(F.numBlocks());
  markReachable(F, F.entry(), /*Backward=*/false, Keep);
  if (!F.exit() || !Keep[F.exit()->id()])
    return false;
  F.eraseBlocks(Keep);
  return true;
}

bool stillFails(Function &Candidate, PassId P, const FuzzOptions &FO,
                std::uint64_t OracleSeed) {
  if (!verifyFunction(Candidate).empty())
    return false;
  return !checkOnePass(Candidate, P, FO, OracleSeed).ok();
}

/// Re-runs the checked pipeline once over \p F and reports which algorithm
/// counters it moved, as `group/Name +delta` lines. Counters and histogram
/// samples accumulate monotonically, so an after-minus-before snapshot
/// diff isolates this one run without resetStatistics() — which would
/// clobber the cumulative totals `--stats-json` reports at exit. Max
/// gauges don't subtract and are skipped.
std::string counterDeltaReport(const Function &F, PassId P,
                               const FuzzOptions &FO,
                               std::uint64_t OracleSeed) {
  std::vector<StatisticSnapshot> Before = statisticsSnapshot();
  (void)checkOnePass(F, P, FO, OracleSeed);
  std::string Out;
  for (const StatisticSnapshot &A : statisticsSnapshot()) {
    if (A.Kind == StatKind::Max)
      continue;
    std::uint64_t Prev = 0;
    for (const StatisticSnapshot &B : Before)
      if (B.Group == A.Group && B.Name == A.Name) {
        Prev = B.Value;
        break;
      }
    if (A.Value > Prev)
      Out += "  " + A.Group + "/" + A.Name + " +" +
             std::to_string(A.Value - Prev) + "\n";
  }
  return Out;
}

/// Greedy delta-debugging over the IR: repeatedly try instruction
/// deletion, branch collapsing, and operand simplification, keeping any
/// change that preserves the failure. Deterministic given OracleSeed.
std::string reduce(const Function &Failing, PassId P, const FuzzOptions &FO,
                   std::uint64_t OracleSeed) {
  std::unique_ptr<Function> Cur;
  if (!cloneFunction(Failing, Cur).ok())
    return printFunction(Failing);

  auto Try = [&](Function &Candidate) {
    if (!stillFails(Candidate, P, FO, OracleSeed))
      return false;
    std::unique_ptr<Function> Adopted;
    if (!cloneFunction(Candidate, Adopted).ok())
      return false;
    Cur = std::move(Adopted);
    return true;
  };

  bool Changed = true;
  while (Changed) {
    Changed = false;

    // Delete one non-terminator instruction at a time.
    for (unsigned B = 0; B < Cur->numBlocks() && !Changed; ++B)
      for (unsigned I = 0; I < unsigned(Cur->block(B)->size()); ++I) {
        if (Cur->block(B)->instructions()[I]->isTerminator())
          continue;
        std::unique_ptr<Function> Cand;
        if (!cloneFunction(*Cur, Cand).ok())
          continue;
        Cand->block(B)->removeInstruction(I);
        if (Try(*Cand)) {
          Changed = true;
          break;
        }
      }
    if (Changed)
      continue;

    // Collapse one conditional branch to a jump (then drop what became
    // unreachable).
    for (unsigned B = 0; B < Cur->numBlocks() && !Changed; ++B)
      for (int Side = 0; Side < 2; ++Side) {
        std::unique_ptr<Function> Cand;
        if (!cloneFunction(*Cur, Cand).ok())
          continue;
        auto *Br =
            dyn_cast_if_present<CondBrInst>(Cand->block(B)->terminator());
        if (!Br)
          break;
        BasicBlock *Target = Side ? Br->falseTarget() : Br->trueTarget();
        Cand->block(B)->clearTerminator();
        Cand->block(B)->setJump(Target);
        Cand->recomputePreds();
        if (!dropUnreachable(*Cand))
          continue;
        if (Try(*Cand)) {
          Changed = true;
          break;
        }
      }
    if (Changed)
      continue;

    // Bypass one trivial non-entry block (only a `goto`): point every
    // branch that targets it directly at its successor, then drop it.
    // (Bypassing the entry would leave the program unchanged — it stays
    // reachable by definition — so it is handled separately below.)
    for (unsigned B = 1; B < Cur->numBlocks() && !Changed; ++B) {
      BasicBlock *Trivial = Cur->block(B);
      auto *J = Trivial->size() == 1
                    ? dyn_cast_if_present<JumpInst>(Trivial->terminator())
                    : nullptr;
      if (!J || J->target() == Trivial)
        continue;
      std::unique_ptr<Function> Cand;
      if (!cloneFunction(*Cur, Cand).ok())
        continue;
      BasicBlock *Dead = Cand->block(B);
      BasicBlock *Target = cast<JumpInst>(Dead->terminator())->target();
      for (const auto &BB : Cand->blocks())
        if (BB.get() != Dead && BB->terminator())
          BB->terminator()->replaceBlockRef(Dead, Target);
      Cand->recomputePreds();
      if (!dropUnreachable(*Cand))
        continue;
      if (Try(*Cand))
        Changed = true;
    }
    if (Changed)
      continue;

    // Drop a trivial entry block nothing branches back to; its target
    // becomes the new entry.
    Cur->recomputePreds();
    if (Cur->numBlocks() > 1 && Cur->entry()->size() == 1 &&
        isa_and_present<JumpInst>(Cur->entry()->terminator()) &&
        Cur->entry()->numPredecessors() == 0) {
      std::unique_ptr<Function> Cand;
      if (cloneFunction(*Cur, Cand).ok()) {
        std::vector<bool> Keep(Cand->numBlocks(), true);
        Keep[0] = false;
        Cand->eraseBlocks(Keep);
        if (Try(*Cand))
          Changed = true;
      }
    }
    if (Changed)
      continue;

    // Replace one variable operand with the constant 0.
    for (unsigned B = 0; B < Cur->numBlocks() && !Changed; ++B) {
      // Test Changed first: a successful Try frees the block BB points at.
      BasicBlock *BB = Cur->block(B);
      for (unsigned I = 0; !Changed && I < unsigned(BB->size()); ++I)
        for (unsigned Op = 0;
             Op < BB->instructions()[I]->numOperands(); ++Op) {
          if (!BB->instructions()[I]->operand(Op).isVar())
            continue;
          std::unique_ptr<Function> Cand;
          if (!cloneFunction(*Cur, Cand).ok())
            continue;
          Cand->block(B)->instructions()[I]->setOperand(Op,
                                                        Operand::imm(0));
          if (Try(*Cand)) {
            Changed = true;
            break;
          }
        }
    }
  }
  return printFunction(*Cur);
}

//===----------------------------------------------------------------------===//
// Module-level differential check: the parallel driver must be a no-op
// observationally — same printed module, same per-function counters — for
// any job count.
//===----------------------------------------------------------------------===//

/// Builds a module of 2..5 mixed functions from \p ModuleSeed, runs the
/// separate,constprop,pre,range,taint,nulluse pipeline serially and on a
/// thread pool, and compares. The two runs use independently generated
/// (bit-identical) modules, so neither can contaminate the other.
Status checkModulePipeline(std::uint64_t ModuleSeed, unsigned NumFuncs) {
  PassPipeline Pipe;
  Status PS =
      PassPipeline::parse("separate,constprop,pre,range,taint,nulluse", Pipe);
  if (!PS.ok())
    return PS;

  std::unique_ptr<Module> Serial = generateModule(NumFuncs, ModuleSeed);
  std::unique_ptr<Module> Parallel = generateModule(NumFuncs, ModuleSeed);

  ModulePipelineOptions SerialOpts;
  SerialOpts.Jobs = 1;
  ModulePipelineResult SR = runPipelineOnModule(*Serial, Pipe, SerialOpts);
  ModulePipelineOptions ParallelOpts;
  ParallelOpts.Jobs = 4;
  ModulePipelineResult PR = runPipelineOnModule(*Parallel, Pipe, ParallelOpts);

  Status Out;
  if (!SR.ok())
    Out.append(SR.combinedStatus(), "module (serial)");
  if (!PR.ok())
    Out.append(PR.combinedStatus(), "module (-j 4)");
  if (!Out.ok())
    return Out;

  if (printModule(*Serial) != printModule(*Parallel))
    Out.addError("module pipeline -j 4 produced different output than -j 1 "
                 "(module seed " +
                 std::to_string(ModuleSeed) + ", " +
                 std::to_string(NumFuncs) + " functions)");
  for (unsigned I = 0; I != NumFuncs && Out.ok(); ++I) {
    const FunctionPipelineResult &A = SR.Functions[I];
    const FunctionPipelineResult &B = PR.Functions[I];
    if (A.Hits != B.Hits || A.Misses != B.Misses)
      Out.addError("per-function analysis counters differ between -j 1 and "
                   "-j 4 for function '" +
                   A.Name + "' (module seed " + std::to_string(ModuleSeed) +
                   ")");
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Fault sweep: the degradation contract under every registered fault
// point. For each generated module, a clean --keep-going run establishes
// the reference output; each sweep case regenerates the identical module,
// arms one fault point (or a budget), runs the pipeline, and asserts the
// contract: the armed point fired (else it is stale), failed functions
// were restored to their original text, and every successful function's
// text is byte-identical to the fault-free run.
//===----------------------------------------------------------------------===//

struct SweepCase {
  std::string Spec;                 // "" = budget-only case, nothing armed.
  std::uint64_t MaxPassMillis = 0;
  std::uint64_t MaxTaskBytes = 0;
  bool ExpectFailure = false; // Must degrade at least one function.
};

unsigned runFaultSweep(const FuzzOptions &FO) {
  PassPipeline Pipe;
  if (!PassPipeline::parse("separate,constprop,pre,range,taint,nulluse",
                           Pipe)
           .ok())
    return 1;

  // One case per registered point, each through a path the pipeline must
  // survive: the counting allocator, the pass boundary (twice — first and
  // a later occurrence), the analysis boundary (both the shared DFG and a
  // sparse-engine client result), and the deadline. The budget-only case
  // proves --max-task-bytes degrades without any fault.
  std::vector<SweepCase> Cases = {
      {"alloc-fail@200", 0, 0, true},
      {"pass-fail:constprop", 0, 0, true},
      {"pass-fail:pre@2", 0, 0, true},
      {"pass-fail:range", 0, 0, true},
      {"pass-fail:taint", 0, 0, true},
      {"pass-fail:nulluse", 0, 0, true},
      {"analysis-fail:dfg", 0, 0, true},
      {"analysis-fail:nulluse", 0, 0, true},
      {"slow-pass:30", 20, 0, true},
      {"", 0, 20 * 1024, true},
  };
  // Extras ride along with a deadline so slow-pass extras terminate. An
  // extra that never fires fails the sweep — the stale-point self-check.
  for (const std::string &Extra : FO.SweepExtras)
    Cases.push_back({Extra, 20, 0, false});

  RNG Rand(FO.Seed);
  unsigned Violations = 0, CaseRuns = 0;
  for (unsigned Iter = 0; Iter != FO.Iters; ++Iter) {
    std::uint64_t ModuleSeed = Rand.next();
    unsigned NumFuncs = 3 + unsigned(Rand.nextBelow(3));
    unsigned Jobs = Iter % 2 ? 1 : 4;

    auto Violation = [&](const std::string &Case, const std::string &Msg) {
      ++Violations;
      std::fprintf(stderr,
                   "=== FAULT-SWEEP VIOLATION (iter %u, case '%s', seed "
                   "%llu, module seed %llu, -j %u) ===\n%s\n",
                   Iter, Case.c_str(), (unsigned long long)FO.Seed,
                   (unsigned long long)ModuleSeed, Jobs, Msg.c_str());
    };

    // Fault-free reference run (still under --keep-going semantics, so
    // the sweep compares like with like).
    std::unique_ptr<Module> Clean = generateModule(NumFuncs, ModuleSeed);
    std::vector<std::string> Original;
    for (const auto &F : Clean->functions())
      Original.push_back(printFunction(*F));
    ModulePipelineOptions CleanOpts;
    CleanOpts.Jobs = Jobs;
    CleanOpts.KeepGoing = true;
    ModulePipelineResult CR = runPipelineOnModule(*Clean, Pipe, CleanOpts);
    if (!CR.ok()) {
      Violation("<clean>", CR.combinedStatus().str());
      continue;
    }
    std::vector<std::string> CleanText;
    for (const auto &F : Clean->functions())
      CleanText.push_back(printFunction(*F));

    for (const SweepCase &C : Cases) {
      std::unique_ptr<Module> M = generateModule(NumFuncs, ModuleSeed);
      if (!C.Spec.empty()) {
        Status S = configureFaultInjection(C.Spec);
        if (!S.ok()) {
          Violation(C.Spec, S.str());
          continue;
        }
      }
      ModulePipelineOptions Opts;
      Opts.Jobs = Jobs;
      Opts.KeepGoing = true;
      Opts.MaxPassMillis = C.MaxPassMillis;
      Opts.MaxTaskBytes = C.MaxTaskBytes;
      // Record the structured event journal for this case alone: the
      // degradation contract extends to observability — every failed
      // function task must leave exactly one task-failed event whose
      // `kind` matches the task's TaskFailureKind classification.
      obs::EventLogger &Journal = obs::EventLogger::global();
      Journal.reset();
      Journal.setEnabled(true);
      ModulePipelineResult PR = runPipelineOnModule(*M, Pipe, Opts);
      Journal.setEnabled(false);
      std::vector<std::string> JournalLines = Journal.snapshot();
      bool Fired = faultPointFired();
      clearFaultInjection();
      ++CaseRuns;

      const std::string Label = C.Spec.empty() ? "<byte-budget>" : C.Spec;
      if (!C.Spec.empty() && !Fired)
        Violation(Label,
                  "armed fault point never fired: its check site is gone "
                  "or its selector matches nothing (stale point)");
      if (C.ExpectFailure && Fired && PR.numFailed() == 0)
        Violation(Label, "fault fired but no function task failed");
      if (C.Spec.empty() && C.ExpectFailure && PR.numFailed() == 0)
        Violation(Label, "byte budget degraded no function");
      for (unsigned I = 0; I != NumFuncs; ++I) {
        const FunctionPipelineResult &FR = PR.Functions[I];
        std::string Now = printFunction(*M->function(I));
        if (FR.S.ok()) {
          if (Now != CleanText[I])
            Violation(Label, "successful function '" + FR.Name +
                                 "' is not byte-identical to the "
                                 "fault-free run");
        } else if (!FR.Restored) {
          Violation(Label, "failed function '" + FR.Name +
                               "' was not restored (" + FR.S.str() + ")");
        } else if (Now != Original[I]) {
          Violation(Label, "failed function '" + FR.Name +
                               "' restored text differs from its original");
        }
      }

      // Journal cross-check: one task-failed event per failed function,
      // classified identically to the pipeline result, and none for
      // successful functions.
      unsigned FailedEvents = 0;
      for (const std::string &L : JournalLines)
        if (L.find("\"event\":\"task-failed\"") != std::string::npos)
          ++FailedEvents;
      if (FailedEvents != PR.numFailed())
        Violation(Label, "journal recorded " + std::to_string(FailedEvents) +
                             " task-failed event(s) but " +
                             std::to_string(PR.numFailed()) +
                             " function task(s) failed");
      for (unsigned I = 0; I != NumFuncs; ++I) {
        const FunctionPipelineResult &FR = PR.Functions[I];
        if (FR.S.ok())
          continue;
        const std::string Needle = "\"event\":\"task-failed\",\"run\":"
                                   "\"module-pipeline\",\"task\":\"" +
                                   FR.Name + "\"";
        const std::string KindField =
            std::string("\"kind\":\"") + taskFailureKindName(FR.FailKind) +
            "\"";
        unsigned Matches = 0;
        for (const std::string &L : JournalLines)
          if (L.find(Needle) != std::string::npos &&
              L.find(KindField) != std::string::npos)
            ++Matches;
        if (Matches != 1)
          Violation(Label, "failed function '" + FR.Name + "' has " +
                               std::to_string(Matches) +
                               " matching task-failed journal event(s) "
                               "(expected exactly 1 with " +
                               KindField + ")");
      }
    }

    // parse-truncate runs outside the pipeline: cut the printed module in
    // half and require the parser to degrade gracefully (a diagnostic or
    // a smaller module — never a crash).
    if (configureFaultInjection("parse-truncate").ok()) {
      std::string Cut = faultTruncateSource(printModule(*Clean));
      bool Fired = faultPointFired();
      clearFaultInjection();
      ++CaseRuns;
      if (!Fired)
        Violation("parse-truncate", "truncation point never fired");
      ParseModuleResult RR = parseModule(Cut);
      if (RR.ok() && RR.M->numFunctions() > NumFuncs)
        Violation("parse-truncate",
                  "truncated module parsed to more functions than the "
                  "original");
    }

    if (FO.Verbose && (Iter + 1) % 10 == 0)
      std::fprintf(stderr,
                   "depflow-fuzz: fault-sweep %u/%u iterations, "
                   "%u violations\n",
                   Iter + 1, FO.Iters, Violations);
  }

  std::fprintf(stderr,
               "depflow-fuzz: fault-sweep: %u module(s) x %u case(s) "
               "(%u case runs), %u violation(s)\n",
               FO.Iters, unsigned(Cases.size()) + 1, CaseRuns, Violations);
  return Violations;
}

//===----------------------------------------------------------------------===//
// Slice differential oracle: a backward slice is *executable* and must
// reproduce the interpreter's observations at the criterion exactly.
// Each iteration generates a call-DAG module, watches one random
// observable instruction, runs the module, and hands the halted run's
// watch trace to checkSliceExecution (src/verify/Oracles.h), which
// extracts the backward slice for that criterion, reruns it on the same
// inputs, and compares the two traces value for value. This is the
// end-to-end soundness check for the whole SDG stack: per-function PDGs,
// interprocedural edges, summary edges, the two-phase traversal, and
// executable extraction.
//===----------------------------------------------------------------------===//

unsigned runSliceOracle(const FuzzOptions &FO) {
  RNG Rand(FO.Seed);
  unsigned Violations = 0, Checked = 0, SkippedNoHalt = 0;
  unsigned NonEmptyTraces = 0; // Runs where the criterion executed at all.

  for (unsigned Iter = 0; Iter != FO.Iters; ++Iter) {
    std::uint64_t ModuleSeed = Rand.next();
    unsigned NumFuncs = 2 + unsigned(Rand.nextBelow(4));

    auto Violation = [&](const std::string &What, const Module &M,
                         const std::string &Crit) {
      ++Violations;
      std::fprintf(stderr,
                   "=== SLICE VIOLATION (iter %u, module seed %llu, seed "
                   "%llu, criterion %s) ===\n%s\n--- module ---\n%s",
                   Iter, (unsigned long long)ModuleSeed,
                   (unsigned long long)FO.Seed, Crit.c_str(), What.c_str(),
                   printModule(M).c_str());
    };

    // Round-trip through the printer so every instruction carries the
    // source line a criterion names (generated IR is synthesized at
    // line 0); the round-trip also fuzzes the call grammar end to end.
    std::unique_ptr<Module> Gen = generateCallModule(NumFuncs, ModuleSeed);
    ParseModuleResult PR = parseModule(printModule(*Gen));
    if (!PR.ok()) {
      Violation("generated call module failed to re-parse: " + PR.Error,
                *Gen, "-");
      continue;
    }
    Module &M = *PR.M;

    // Criterion: a random instruction the watch point can observe (a
    // definition, a conditional branch, or a ret).
    unsigned FI = unsigned(Rand.nextBelow(M.numFunctions()));
    const Function &CF = *M.function(FI);
    std::vector<const Instruction *> Cands;
    for (const auto &BB : CF.blocks())
      for (const auto &I : BB->instructions())
        if (I->line() && (I->isDefinition() || isa<CondBrInst>(I.get()) ||
                          isa<RetInst>(I.get())))
          Cands.push_back(I.get());
    if (Cands.empty())
      continue;
    const Instruction *CI = Cands[Rand.nextBelow(Cands.size())];
    const std::string CritText =
        CF.name() + ":" + std::to_string(CI->line());

    ModuleExecOptions EO;
    EO.MaxSteps = FO.SliceMaxSteps;
    EO.WatchFunc = CF.name();
    EO.WatchLine = CI->line();
    std::vector<std::int64_t> Inputs;
    for (unsigned K = 0; K != 8; ++K)
      Inputs.push_back(Rand.nextInRange(-8, 8));

    ExecResult Ref = runModule(M, *M.function(0), Inputs, EO);
    if (!Ref.Halted) {
      ++SkippedNoHalt; // Non-terminating / fuel-bound run: no ground truth.
      continue;
    }
    if (!Ref.WatchTrace.empty())
      ++NonEmptyTraces;

    ++Checked;
    // The SDG's job count is drawn per module: determinism rides along.
    Status S = checkSliceExecution(M, Inputs, EO, Ref.WatchTrace,
                                   1 + unsigned(Rand.nextBelow(4)));
    if (!S.ok()) {
      Violation(S.str(), M, CritText);
      continue;
    }

    if (FO.Verbose && (Iter + 1) % 100 == 0)
      std::fprintf(stderr,
                   "depflow-fuzz: slice-oracle %u/%u iterations, "
                   "%u violations\n",
                   Iter + 1, FO.Iters, Violations);
  }

  std::fprintf(stderr,
               "depflow-fuzz: slice-oracle: %u module(s), %u checked "
               "(%u with a non-empty trace), %u skipped (no halt), "
               "%u violation(s)\n",
               FO.Iters, Checked, NonEmptyTraces, SkippedNoHalt, Violations);
  return Violations;
}

} // namespace

int main(int Argc, char **Argv) {
  FuzzOptions FO;
  if (!parseArgs(Argc, Argv, FO))
    return usage();

  if (FO.EmitModule) {
    std::unique_ptr<Module> M = generateModule(FO.EmitModule, FO.Seed);
    std::printf("%s", printModule(*M).c_str());
    return 0;
  }

  if (FO.FaultSweep)
    return runFaultSweep(FO) ? 1 : 0;

  if (FO.SliceOracle)
    return runSliceOracle(FO) ? 1 : 0;

  RNG Rand(FO.Seed);
  unsigned Violations = 0, Generated = 0, MutantsSkipped = 0;
  unsigned ModuleChecks = 0;

  for (unsigned Iter = 0; Iter != FO.Iters; ++Iter) {
    unsigned Family = 0;
    // Six CFG families; the distribution lives in workload/Generators so
    // the benches and module smoke inputs fuzz the same program shapes.
    std::unique_ptr<Function> F = generateMixedProgram(Rand, &Family);
    ++Generated;

    if (FO.Mutate && Rand.chance(1, 2)) {
      unsigned NumMutations = 1 + unsigned(Rand.nextBelow(3));
      for (unsigned M = 0; M != NumMutations; ++M)
        mutateOnce(*F, Rand);
      F->recomputePreds();
      if (!verifyFunction(*F).empty()) {
        // The mutant no longer satisfies the IR contract; the verifier
        // rejecting it without crashing is itself the property we want.
        ++MutantsSkipped;
        continue;
      }
    }

    std::uint64_t OracleSeed = Rand.next();
    for (PassId P : FO.Passes) {
      Status S = checkOnePass(*F, P, FO, OracleSeed);
      if (S.ok())
        continue;
      ++Violations;
      std::fprintf(stderr,
                   "=== VIOLATION (iter %u, family %s, pass --%s, seed "
                   "%llu) ===\n%s\n",
                   Iter, mixedFamilyName(Family), passName(P),
                   (unsigned long long)FO.Seed, S.str().c_str());
      std::string Reproducer = reduce(*F, P, FO, OracleSeed);
      std::fprintf(stderr,
                   "--- reduced reproducer (%u lines, pass --%s) ---\n%s",
                   unsigned(std::count(Reproducer.begin(), Reproducer.end(),
                                       '\n')),
                   passName(P), Reproducer.c_str());
      // Re-parse the reproducer and report the algorithm counters one
      // checked run over it moves — the work profile of the minimal case.
      ParseResult RR = parseFunction(Reproducer);
      if (RR.ok()) {
        std::string Deltas =
            counterDeltaReport(*RR.Fn, P, FO, OracleSeed);
        std::fprintf(stderr, "--- reproducer counter deltas ---\n%s",
                     Deltas.c_str());
      }
    }

    // Module determinism check, every 10th iteration on average.
    if (FO.Modules && Rand.chance(1, 10)) {
      std::uint64_t ModuleSeed = Rand.next();
      unsigned NumFuncs = 2 + unsigned(Rand.nextBelow(4));
      ++ModuleChecks;
      Status S = checkModulePipeline(ModuleSeed, NumFuncs);
      if (!S.ok()) {
        ++Violations;
        std::fprintf(stderr,
                     "=== MODULE VIOLATION (iter %u, module seed %llu, seed "
                     "%llu) ===\n%s\n",
                     Iter, (unsigned long long)ModuleSeed,
                     (unsigned long long)FO.Seed, S.str().c_str());
      }
    }

    if (FO.Verbose && (Iter + 1) % 100 == 0)
      std::fprintf(stderr, "depflow-fuzz: %u/%u iterations, %u violations\n",
                   Iter + 1, FO.Iters, Violations);
  }

  std::fprintf(stderr,
               "depflow-fuzz: %u programs (%u mutants skipped as "
               "ill-formed), %u pass(es) x %u iters, %u module check(s), "
               "%u violation(s)\n",
               Generated, MutantsSkipped, unsigned(FO.Passes.size()),
               FO.Iters, ModuleChecks, Violations);

  if (!FO.StatsJson.empty()) {
    obs::StatsReport SR;
    SR.Tool = "depflow-fuzz";
    std::string Pipeline;
    for (PassId P : FO.Passes) {
      if (!Pipeline.empty())
        Pipeline += ',';
      Pipeline += passName(P);
    }
    SR.Pipeline = Pipeline;
    SR.Functions = Generated;
    SR.Jobs = 1;
    Status S = obs::writeStatsJson(FO.StatsJson, SR);
    if (!S.ok()) {
      std::fprintf(stderr, "error: %s\n", S.str().c_str());
      return 1;
    }
  }
  return Violations ? 1 : 0;
}
