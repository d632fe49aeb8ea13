//===- tests/fault_injection_test.cpp - Fault points and budgets ----------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
// Covers the robustness layer: fault-spec parsing and round-trips, the
// deterministic @nth occurrence selector, injected allocation failure
// unwinding cleanly through the pipeline, the per-task byte budget and
// cooperative deadline, and the --keep-going degradation contract — the
// failed function's original text restored into the module, every
// successful function byte-identical to a fault-free run, at -j 1 and
// -j 8. Also the interpreter fuel satellite (ExecResult::status()).
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "pass/ModulePipeline.h"
#include "support/FaultInjection.h"
#include "workload/Generators.h"

#include <gtest/gtest.h>

using namespace depflow;

namespace {

/// Every test arms at most one point; the guard disarms on every exit
/// path so a failing assertion cannot leak an armed fault into the next
/// test.
struct FaultGuard {
  ~FaultGuard() { clearFaultInjection(); }
};

PassPipeline standardPipeline() {
  PassPipeline Pipe;
  EXPECT_TRUE(PassPipeline::parse("separate,constprop,pre", Pipe).ok());
  return Pipe;
}

std::vector<std::string> functionTexts(const Module &M) {
  std::vector<std::string> Out;
  for (const auto &F : M.functions())
    Out.push_back(printFunction(*F));
  return Out;
}

/// Reference --keep-going run with nothing armed: the texts every
/// successful function of a faulted run must reproduce exactly.
std::vector<std::string> cleanRunTexts(std::uint64_t Seed, unsigned NumFuncs,
                                       unsigned Jobs) {
  std::unique_ptr<Module> M = generateModule(NumFuncs, Seed);
  ModulePipelineOptions Opts;
  Opts.Jobs = Jobs;
  Opts.KeepGoing = true;
  ModulePipelineResult PR =
      runPipelineOnModule(*M, standardPipeline(), Opts);
  EXPECT_TRUE(PR.ok()) << PR.combinedStatus().str();
  return functionTexts(*M);
}

//===----------------------------------------------------------------------===//
// Spec parsing.
//===----------------------------------------------------------------------===//

TEST(FaultSpec, ParseAndRoundTrip) {
  FaultSpec S;
  ASSERT_TRUE(parseFaultSpec("alloc-fail", S).ok());
  EXPECT_EQ(S.Kind, FaultKind::AllocFail);
  EXPECT_EQ(S.Nth, 1u);
  EXPECT_EQ(S.str(), "alloc-fail");

  ASSERT_TRUE(parseFaultSpec("pass-fail:constprop@3", S).ok());
  EXPECT_EQ(S.Kind, FaultKind::PassFail);
  EXPECT_EQ(S.Arg, "constprop");
  EXPECT_EQ(S.Nth, 3u);
  EXPECT_EQ(S.str(), "pass-fail:constprop@3");

  ASSERT_TRUE(parseFaultSpec("analysis-fail:dfg", S).ok());
  EXPECT_EQ(S.Kind, FaultKind::AnalysisFail);
  EXPECT_EQ(S.Arg, "dfg");

  ASSERT_TRUE(parseFaultSpec("slow-pass:40@2", S).ok());
  EXPECT_EQ(S.Kind, FaultKind::SlowPass);
  EXPECT_EQ(S.Millis, 40u);
  EXPECT_EQ(S.Nth, 2u);
  EXPECT_EQ(S.str(), "slow-pass:40@2");

  ASSERT_TRUE(parseFaultSpec("parse-truncate", S).ok());
  EXPECT_EQ(S.Kind, FaultKind::ParseTruncate);

  // A second parse of each round-tripped string yields the same spec.
  for (const char *Text :
       {"alloc-fail@7", "pass-fail:pre@2", "slow-pass:5"}) {
    FaultSpec A, B;
    ASSERT_TRUE(parseFaultSpec(Text, A).ok());
    ASSERT_TRUE(parseFaultSpec(A.str(), B).ok());
    EXPECT_EQ(A.str(), B.str());
  }
}

TEST(FaultSpec, Rejections) {
  FaultSpec S;
  EXPECT_FALSE(parseFaultSpec("", S).ok());
  EXPECT_FALSE(parseFaultSpec("bogus", S).ok());
  EXPECT_FALSE(parseFaultSpec("pass-fail", S).ok());      // Missing name.
  EXPECT_FALSE(parseFaultSpec("alloc-fail@0", S).ok());   // Nth is 1-based.
  EXPECT_FALSE(parseFaultSpec("alloc-fail@x", S).ok());
  EXPECT_FALSE(parseFaultSpec("slow-pass", S).ok());      // Missing ms.
  EXPECT_FALSE(parseFaultSpec("alloc-fail:arg", S).ok()); // Takes no arg.
  // Usage errors name the registered points.
  Status E = parseFaultSpec("nope", S);
  EXPECT_NE(E.str().find("alloc-fail"), std::string::npos);
  // The registry lists exactly the five templates.
  EXPECT_EQ(faultPointNames().size(), 5u);
}

TEST(FaultSpec, ArmDisarmLifecycle) {
  FaultGuard G;
  EXPECT_FALSE(faultInjectionArmed());
  ASSERT_TRUE(configureFaultInjection("pass-fail:constprop@2").ok());
  EXPECT_TRUE(faultInjectionArmed());
  EXPECT_EQ(armedFaultSpec(), "pass-fail:constprop@2");
  EXPECT_FALSE(faultPointFired());
  EXPECT_EQ(faultOccurrenceCount(), 0u);
  clearFaultInjection();
  EXPECT_FALSE(faultInjectionArmed());
  EXPECT_EQ(armedFaultSpec(), "");
  // An empty spec also disarms.
  ASSERT_TRUE(configureFaultInjection("alloc-fail").ok());
  ASSERT_TRUE(configureFaultInjection("").ok());
  EXPECT_FALSE(faultInjectionArmed());
}

//===----------------------------------------------------------------------===//
// Deterministic triggering through the pipeline.
//===----------------------------------------------------------------------===//

TEST(FaultInjection, NthOccurrenceSelectsFunctionDeterministically) {
  FaultGuard G;
  const std::uint64_t Seed = 42;
  const unsigned NumFuncs = 5;
  // At -j 1 functions run in input order, so the Nth execution of
  // constprop belongs to function N-1 — and to the same function on
  // every repeat.
  for (int Repeat = 0; Repeat != 2; ++Repeat) {
    std::unique_ptr<Module> M = generateModule(NumFuncs, Seed);
    ASSERT_TRUE(configureFaultInjection("pass-fail:constprop@3").ok());
    ModulePipelineOptions Opts;
    Opts.Jobs = 1;
    Opts.KeepGoing = true;
    ModulePipelineResult PR =
        runPipelineOnModule(*M, standardPipeline(), Opts);
    clearFaultInjection();
    ASSERT_EQ(PR.numFailed(), 1u);
    for (unsigned I = 0; I != NumFuncs; ++I) {
      SCOPED_TRACE(I);
      EXPECT_EQ(PR.Functions[I].S.ok(), I != 2);
    }
    EXPECT_EQ(PR.Functions[2].FailKind, TaskFailureKind::FaultInjected);
    EXPECT_EQ(PR.Functions[2].FailPass, "constprop");
    EXPECT_TRUE(PR.Functions[2].Restored);
  }
}

TEST(FaultInjection, FiresExactlyOnceUnderThreads) {
  FaultGuard G;
  std::unique_ptr<Module> M = generateModule(8, 7);
  ASSERT_TRUE(configureFaultInjection("pass-fail:pre@4").ok());
  ModulePipelineOptions Opts;
  Opts.Jobs = 8;
  Opts.KeepGoing = true;
  ModulePipelineResult PR = runPipelineOnModule(*M, standardPipeline(), Opts);
  EXPECT_TRUE(faultPointFired());
  clearFaultInjection();
  // Which task observes occurrence 4 depends on the schedule; that it is
  // exactly one task never does.
  EXPECT_EQ(PR.numFailed(), 1u);
}

TEST(FaultInjection, AllocFailUnwindsAndRestores) {
  FaultGuard G;
  const std::uint64_t Seed = 11;
  const unsigned NumFuncs = 4;
  std::vector<std::string> Clean = cleanRunTexts(Seed, NumFuncs, 1);

  std::unique_ptr<Module> M = generateModule(NumFuncs, Seed);
  std::vector<std::string> Original = functionTexts(*M);
  ASSERT_TRUE(configureFaultInjection("alloc-fail@150").ok());
  ModulePipelineOptions Opts;
  Opts.Jobs = 1;
  Opts.KeepGoing = true;
  ModulePipelineResult PR = runPipelineOnModule(*M, standardPipeline(), Opts);
  EXPECT_TRUE(faultPointFired());
  clearFaultInjection();

  ASSERT_EQ(PR.numFailed(), 1u);
  for (unsigned I = 0; I != NumFuncs; ++I) {
    SCOPED_TRACE(I);
    const FunctionPipelineResult &FR = PR.Functions[I];
    std::string Now = printFunction(*M->function(I));
    if (FR.S.ok()) {
      EXPECT_EQ(Now, Clean[I]);
    } else {
      EXPECT_EQ(FR.FailKind, TaskFailureKind::FaultInjected);
      EXPECT_TRUE(FR.Restored);
      EXPECT_EQ(Now, Original[I]);
    }
  }
}

TEST(FaultInjection, AnalysisFailClassified) {
  FaultGuard G;
  std::unique_ptr<Module> M = generateModule(3, 5);
  ASSERT_TRUE(configureFaultInjection("analysis-fail:dfg").ok());
  ModulePipelineOptions Opts;
  Opts.Jobs = 1;
  Opts.KeepGoing = true;
  ModulePipelineResult PR = runPipelineOnModule(*M, standardPipeline(), Opts);
  EXPECT_TRUE(faultPointFired());
  clearFaultInjection();
  ASSERT_EQ(PR.numFailed(), 1u);
  EXPECT_EQ(PR.Functions[0].FailKind, TaskFailureKind::FaultInjected);
  EXPECT_FALSE(PR.Functions[0].FailPass.empty());
  EXPECT_TRUE(PR.Functions[0].Restored);
}

//===----------------------------------------------------------------------===//
// Resource budgets.
//===----------------------------------------------------------------------===//

TEST(Budgets, ByteBudgetDegradesAndPreservesOriginal) {
  FaultGuard G;
  const std::uint64_t Seed = 3;
  const unsigned NumFuncs = 3;
  std::unique_ptr<Module> M = generateModule(NumFuncs, Seed);
  std::vector<std::string> Original = functionTexts(*M);
  ModulePipelineOptions Opts;
  Opts.Jobs = 1;
  Opts.KeepGoing = true;
  Opts.MaxTaskBytes = 4 * 1024; // Far below a task's real appetite.
  ModulePipelineResult PR = runPipelineOnModule(*M, standardPipeline(), Opts);
  ASSERT_GE(PR.numFailed(), 1u);
  for (unsigned I = 0; I != NumFuncs; ++I) {
    const FunctionPipelineResult &FR = PR.Functions[I];
    if (FR.S.ok())
      continue;
    SCOPED_TRACE(I);
    EXPECT_EQ(FR.FailKind, TaskFailureKind::MemoryBudget);
    EXPECT_NE(FR.S.str().find("max-task-bytes"), std::string::npos);
    EXPECT_TRUE(FR.Restored);
    EXPECT_EQ(printFunction(*M->function(I)), Original[I]);
    // The budget is one-shot: after the breach, unwinding and diagnostic
    // allocations still succeed, so the task total may exceed the budget
    // by the cleanup's (small) footprint — but not by another task's
    // worth of work.
    EXPECT_GT(FR.TaskAllocBytes, 0u);
    EXPECT_LE(FR.TaskAllocBytes, Opts.MaxTaskBytes + 64 * 1024);
  }
}

TEST(Budgets, DeadlineViaSlowPass) {
  FaultGuard G;
  std::unique_ptr<Module> M = generateModule(3, 9);
  ASSERT_TRUE(configureFaultInjection("slow-pass:25").ok());
  ModulePipelineOptions Opts;
  Opts.Jobs = 1;
  Opts.KeepGoing = true;
  Opts.MaxPassMillis = 5;
  ModulePipelineResult PR = runPipelineOnModule(*M, standardPipeline(), Opts);
  EXPECT_TRUE(faultPointFired());
  clearFaultInjection();
  ASSERT_EQ(PR.numFailed(), 1u);
  const FunctionPipelineResult &FR = PR.Functions[0];
  EXPECT_EQ(FR.FailKind, TaskFailureKind::DeadlineExceeded);
  EXPECT_NE(FR.S.str().find("max-pass-millis"), std::string::npos);
  EXPECT_TRUE(FR.Restored);
}

//===----------------------------------------------------------------------===//
// The degradation contract under thread counts.
//===----------------------------------------------------------------------===//

TEST(KeepGoing, CleanFunctionsByteIdenticalAtAnyJobCount) {
  FaultGuard G;
  const std::uint64_t Seed = 21;
  const unsigned NumFuncs = 8;
  std::vector<std::string> Clean = cleanRunTexts(Seed, NumFuncs, 1);

  for (unsigned Jobs : {1u, 8u}) {
    SCOPED_TRACE(Jobs);
    std::unique_ptr<Module> M = generateModule(NumFuncs, Seed);
    std::vector<std::string> Original = functionTexts(*M);
    ASSERT_TRUE(configureFaultInjection("pass-fail:constprop@2").ok());
    ModulePipelineOptions Opts;
    Opts.Jobs = Jobs;
    Opts.KeepGoing = true;
    ModulePipelineResult PR =
        runPipelineOnModule(*M, standardPipeline(), Opts);
    EXPECT_TRUE(faultPointFired());
    clearFaultInjection();
    ASSERT_EQ(PR.numFailed(), 1u);
    for (unsigned I = 0; I != NumFuncs; ++I) {
      SCOPED_TRACE(I);
      const FunctionPipelineResult &FR = PR.Functions[I];
      std::string Now = printFunction(*M->function(I));
      if (FR.S.ok())
        EXPECT_EQ(Now, Clean[I]);
      else {
        EXPECT_TRUE(FR.Restored);
        EXPECT_EQ(Now, Original[I]);
      }
    }
  }
}

TEST(KeepGoing, TaskTelemetryPopulated) {
  FaultGuard G;
  std::unique_ptr<Module> M = generateModule(2, 13);
  ModulePipelineOptions Opts;
  Opts.Jobs = 1;
  ModulePipelineResult PR = runPipelineOnModule(*M, standardPipeline(), Opts);
  ASSERT_TRUE(PR.ok());
  for (const FunctionPipelineResult &FR : PR.Functions) {
    EXPECT_EQ(FR.FailKind, TaskFailureKind::None);
    EXPECT_GT(FR.TaskAllocBytes, 0u);
    EXPECT_GE(FR.TaskSeconds, 0.0);
  }
}

TEST(KeepGoing, CurrentTaskFunctionVisibleInHooks) {
  FaultGuard G;
  std::unique_ptr<Module> M = generateModule(3, 17);
  ModulePipelineOptions Opts;
  Opts.Jobs = 1;
  bool Checked = false;
  Opts.AfterPass = [&](unsigned I, PassId, Function &F,
                       FunctionAnalysisManager &) {
    // The crash handler reads the same thread-local the hook sees here.
    EXPECT_STREQ(currentTaskFunction(), F.name().c_str());
    Checked = true;
  };
  ModulePipelineResult PR = runPipelineOnModule(*M, standardPipeline(), Opts);
  ASSERT_TRUE(PR.ok());
  EXPECT_TRUE(Checked);
  // Outside any task the thread-local is empty.
  EXPECT_STREQ(currentTaskFunction(), "");
}

TEST(KeepGoing, FailureKindNamesStable) {
  EXPECT_STREQ(taskFailureKindName(TaskFailureKind::None), "none");
  EXPECT_STREQ(taskFailureKindName(TaskFailureKind::PassError),
               "pass-error");
  EXPECT_STREQ(taskFailureKindName(TaskFailureKind::FaultInjected),
               "fault-injected");
  EXPECT_STREQ(taskFailureKindName(TaskFailureKind::DeadlineExceeded),
               "deadline-exceeded");
  EXPECT_STREQ(taskFailureKindName(TaskFailureKind::MemoryBudget),
               "memory-budget");
  EXPECT_STREQ(taskFailureKindName(TaskFailureKind::OutOfMemory),
               "out-of-memory");
  EXPECT_STREQ(taskFailureKindName(TaskFailureKind::Exception), "exception");
}

//===----------------------------------------------------------------------===//
// parse-truncate and the interpreter-fuel satellite.
//===----------------------------------------------------------------------===//

TEST(FaultInjection, TruncateFiresOnce) {
  FaultGuard G;
  ASSERT_TRUE(configureFaultInjection("parse-truncate").ok());
  std::string Source(100, 'x');
  std::string Cut = faultTruncateSource(Source);
  EXPECT_EQ(Cut.size(), 50u);
  EXPECT_TRUE(faultPointFired());
  // One-shot: the next source passes through untouched.
  EXPECT_EQ(faultTruncateSource(Source).size(), 100u);
  clearFaultInjection();
  EXPECT_EQ(faultTruncateSource(Source).size(), 100u);
}

TEST(InterpFuel, ExhaustionIsAStatusError) {
  ParseResult R = parseFunction(R"(
func sum(n) {
entry:
  a = n + 1
  b = a + 1
  c = b + 1
  d = c + 1
  ret d
}
)");
  ASSERT_TRUE(R.ok()) << R.Error;
  // Plenty of fuel: halts, success status.
  ExecResult Full = runFunction(*R.Fn, {5});
  EXPECT_TRUE(Full.Halted);
  EXPECT_FALSE(Full.FuelExhausted);
  EXPECT_TRUE(Full.status().ok());
  // Two steps of fuel for a five-step body: exhausted, not trapped.
  ExecResult Starved = runFunction(*R.Fn, {5}, 2);
  EXPECT_FALSE(Starved.Halted);
  EXPECT_FALSE(Starved.Trapped);
  EXPECT_TRUE(Starved.FuelExhausted);
  Status S = Starved.status();
  EXPECT_FALSE(S.ok());
  EXPECT_NE(S.str().find("fuel"), std::string::npos);
  // The library default is the documented ~1M steps.
  EXPECT_EQ(DefaultInterpFuel, 1000000u);
}

} // namespace
