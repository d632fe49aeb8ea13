//===- perfbench/depflow_e2e.cpp - End-to-end depflow benchmark -----------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
// Usage: depflow_e2e --workload W --seed N --seconds S --trace 0|1
//                    [--trace-out FILE]
//        depflow_e2e --self-test [--seed N]
//
// Drives depflow-opt's library path in process. One iteration takes module
// source text through parseModule -> verifyFunction / verifyDefUseHygiene
// (plus verifyModuleCalls when slicing) -> runPipelineOnModule, or
// SystemDependenceGraph::build plus slicing -> printModule. Iterations run
// one at a time in a closed loop. Inputs are generated from the seed during
// set-up; the timed code only sees their source text.
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (README.md lists both). Progress goes to stderr; the last stdout line is
// one JSON object {"correct", "attempted", "failed", "metrics"}.
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Transforms.h"
#include "ir/Verifier.h"
#include "obs/Metrics.h"
#include "obs/Sched.h"
#include "obs/Trace.h"
#include "pass/Analyses.h"
#include "pass/ModulePipeline.h"
#include "pass/PassPipeline.h"
#include "sdg/CallGraph.h"
#include "sdg/Slicer.h"
#include "support/Casting.h"
#include "support/FaultInjection.h"
#include "support/Statistic.h"
#include "verify/DiffOracle.h"
#include "workload/Generators.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

using namespace depflow;

namespace {

using Clock = std::chrono::steady_clock;
constexpr double MiB = 1024.0 * 1024.0;

double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

enum class Shape { Pipeline, Slice };

struct Workload {
  const char *Name;
  Shape S;
  const char *Passes; // Pipeline workloads only.
  // Seeded input vectors the step counts run on (per function, or per
  // slice criterion besides the one the criterion was picked with). Few
  // large functions need more runs than many small ones.
  unsigned StepVectors;
};

// Why each workload exists is recorded in README.md.
const Workload Workloads[] = {
    {"module-opt", Shape::Pipeline,
     "separate,constprop,pre,range,taint,nulluse", 2},
    {"bigfn-opt", Shape::Pipeline, "separate,constprop,pre,ssa-dfg", 16},
    {"sdg-slice", Shape::Slice, "", 7},
};

// Every pass some workload runs: the traced run reports pass.<p>_* for each
// (0 where the workload does not run it).
const char *const AllPasses[] = {"separate", "constprop", "pre", "range",
                                 "taint", "nulluse", "ssa-dfg"};

// Sizes keep one iteration between 50 and 150 ms and the spread across
// seeds small (README.md). module-opt and sdg-slice draw twice as many
// functions as they keep and keep a run of them up to an instruction
// budget, so a seed changes the code but hardly the amount of it.
constexpr unsigned ModuleOptFuncs = 1200;
constexpr unsigned ModuleOptInstrs = 22000; // About 1000 functions.
constexpr unsigned BigFnFuncs = 32;
constexpr unsigned BigFnStmts = 150;
constexpr unsigned BigFnVars = 48;
constexpr unsigned SliceFuncs = 256;
constexpr unsigned SliceInstrs = 3300; // About 128 functions.
constexpr unsigned SliceCriteria = 48;
// Interpreter fuel for the oracles and the step counts. Generated loops
// often never exit; a run that does not halt within it is left out. Runs
// that halt take a few hundred steps at most.
constexpr std::uint64_t Fuel = 5000;
// Untimed iterations between set-up and the timed loop.
constexpr double WarmUpSeconds = 1.0;

struct Input {
  const Workload *W = nullptr;
  std::string Source;
  unsigned NumInstrs = 0;
  PassPipeline Pipe;
  std::vector<SliceCriterion> Criteria;
  // Seeded input vector the slice criteria were picked with.
  std::vector<std::int64_t> RunInputs;
  // Seeded input vectors for the step counts (Workload::StepVectors).
  std::vector<std::vector<std::int64_t>> StepInputs;
};

/// The functions of \p M from the first on, or with \p Suffix from the
/// last one back, up to \p Budget instructions, as a module of their own.
/// A suffix of a call module is closed under calls: fi calls only
/// higher-indexed functions.
std::unique_ptr<Module> keepWithin(const Module &M, unsigned Budget,
                                   bool Suffix) {
  const unsigned N = M.numFunctions();
  unsigned Lo = Suffix ? N : 0, Hi = Suffix ? N : 0, Total = 0;
  while (Suffix ? Lo != 0 : Hi != N) {
    unsigned Size = M.function(Suffix ? Lo - 1 : Hi)->numInstructions();
    if (Total + Size > Budget)
      break;
    Total += Size;
    Suffix ? --Lo : ++Hi;
  }
  std::string Text;
  for (unsigned I = Lo; I != Hi; ++I)
    Text += printFunction(*M.function(I)) + "\n";
  return parseModule(Text).M;
}

std::unique_ptr<Module> generate(const Workload &W, std::uint64_t Seed) {
  if (W.S == Shape::Slice) {
    // Normalized to the paper's node model, every conditional branch in a
    // block of its own. Without it, slices lose the loop branch that ends
    // the block it controls: generateCallModule(256, 14) at f165:6059 is a
    // read() in such a loop that the slice runs once instead of four times.
    std::unique_ptr<Module> M = generateCallModule(SliceFuncs, Seed);
    for (const auto &F : M->functions())
      separateComputation(*F);
    return keepWithin(*M, SliceInstrs, /*Suffix=*/true);
  }
  if (std::strcmp(W.Name, "module-opt") == 0)
    return keepWithin(*generateModule(ModuleOptFuncs, Seed), ModuleOptInstrs,
                      /*Suffix=*/false);
  auto M = std::make_unique<Module>();
  RNG Rand(Seed);
  for (unsigned I = 0; I != BigFnFuncs; ++I) {
    GenOptions O;
    O.Seed = Rand.next();
    O.NumVars = BigFnVars;
    O.TargetStmts = BigFnStmts;
    std::unique_ptr<Function> F = generateStructuredProgram(O);
    F->setName("f" + std::to_string(I));
    // Every variable is read at entry. Left at their implicit 0, branches
    // on never-assigned variables fold: an early endless loop makes the
    // rest dead, and constprop deletes 70-90% of a function by chance.
    for (unsigned V = 0; V != F->numVars(); ++V)
      F->entry()->insertAt(V, std::make_unique<ReadInst>(VarId(V)));
    if (!M->addFunction(std::move(F)).ok())
      return nullptr;
  }
  return M;
}

/// Slice-criterion candidates of \p F: definitions and conditional
/// branches that carry a line. Rets are left out: the watch records every
/// ret operand, while the SDG models only the first as the return value,
/// so the slice of a multi-operand ret reproduces only part of its trace.
std::vector<const Instruction *> watchable(const Function &F) {
  std::vector<const Instruction *> Out;
  for (const auto &BB : F.blocks())
    for (const auto &I : BB->instructions())
      if (I->line() && (I->isDefinition() || isa<CondBrInst>(I.get())))
        Out.push_back(I.get());
  return Out;
}

/// Picks slice criteria the original program executes on RunInputs, so the
/// watch-trace oracle compares non-empty traces. Criteria are stratified
/// over function positions: a slice grows with the callees below its
/// function, which the position in the call DAG decides, and random
/// positions make slice sizes swing widely from seed to seed.
Status pickCriteria(Input &In, std::uint64_t Seed) {
  ParseModuleResult R = parseModule(In.Source);
  if (!R.ok())
    return Status::error("generated source does not parse: " + R.Error);
  const Module &M = *R.M;
  const unsigned N = M.numFunctions();
  RNG Rand(Seed ^ 0x5eedc0de5eedc0deULL);
  // Tries one random candidate of function \p FI; true when taken.
  auto TryOne = [&](unsigned FI) {
    const Function &F = *M.function(FI);
    std::vector<const Instruction *> Cands = watchable(F);
    if (Cands.empty())
      return false;
    const Instruction *I = Cands[Rand.nextBelow(Cands.size())];
    ModuleExecOptions EO;
    EO.MaxSteps = Fuel;
    EO.WatchFunc = F.name();
    EO.WatchLine = I->line();
    ExecResult Ref = runModule(M, F, In.RunInputs, EO);
    if (!Ref.Halted || Ref.WatchTrace.empty())
      return false;
    In.Criteria.push_back({F.name(), I->line()});
    return true;
  };
  for (unsigned K = 0; K != SliceCriteria; ++K) {
    const unsigned Lo = K * N / SliceCriteria;
    const unsigned Width = std::max(1u, (K + 1) * N / SliceCriteria - Lo);
    bool Found = false;
    for (unsigned Try = 0; Try != 64 && !Found; ++Try)
      Found = TryOne(Lo + unsigned(Rand.nextBelow(Width)));
    // A stratum without an executed candidate borrows from the whole
    // module, so every seed slices the same number of criteria.
    for (unsigned Try = 0; Try != 4096 && !Found; ++Try)
      Found = TryOne(unsigned(Rand.nextBelow(N)));
  }
  if (In.Criteria.empty())
    return Status::error("no executed slice criterion found");
  return Status::success();
}

Status makeInput(const Workload &W, std::uint64_t Seed, Input &In) {
  In = Input();
  In.W = &W;
  std::unique_ptr<Module> M = generate(W, Seed);
  if (!M)
    return Status::error("input generation failed");
  In.Source = printModule(*M);
  In.NumInstrs = M->numInstructions();
  RNG Rand(Seed + 1);
  auto Vector = [&] {
    std::vector<std::int64_t> V;
    for (unsigned K = 0; K != 8; ++K)
      V.push_back(Rand.nextInRange(-8, 8));
    return V;
  };
  In.RunInputs = Vector();
  for (unsigned K = 0; K != W.StepVectors; ++K)
    In.StepInputs.push_back(Vector());
  if (W.S == Shape::Slice)
    return pickCriteria(In, Seed);
  return PassPipeline::parse(W.Passes, In.Pipe);
}

//===----------------------------------------------------------------------===//
// One iteration
//===----------------------------------------------------------------------===//

struct LayerSample {
  double Ms = 0;
  double AllocBytes = 0;
};
using LayerTable = std::map<std::string, LayerSample>;

/// Times one call into a layer from the benchmark's side and records a
/// matching "bench" span in the Chrome trace. Inert without a table.
/// Allocation is read from this thread's counter, or, for a layer that runs
/// worker threads, from the process total. Worker threads have joined when
/// the call returns, so that total is consistent; it walks one record per
/// thread ever started, so it is read outside the timed interval.
class Step {
  LayerTable *Table;
  const char *Name;
  bool Workers;
  std::optional<obs::TraceSpan> Span;
  std::uint64_t Bytes0 = 0;
  Clock::time_point T0;

  std::uint64_t bytes() const {
    return Workers ? obs::processAllocatedBytes() : obs::threadAllocatedBytes();
  }

public:
  Step(LayerTable *Table, const char *Name, bool Workers = false)
      : Table(Table), Name(Name), Workers(Workers) {
    if (!Table)
      return;
    Bytes0 = bytes();
    Span.emplace("bench", Name);
    T0 = Clock::now();
  }
  Step(const Step &) = delete;
  Step &operator=(const Step &) = delete;
  ~Step() {
    if (!Table)
      return;
    const double Ms = msSince(T0);
    Span.reset();
    LayerSample &S = (*Table)[Name];
    S.Ms += Ms;
    S.AllocBytes += double(bytes() - Bytes0);
  }
};

/// What a traced iteration leaves behind besides its layer timings.
struct TracedIter {
  LayerTable Layers;       // Calls from the iteration's own thread.
  LayerTable WorkerLayers; // Calls from slice workers, summed over them.
  ModulePipelineResult Pipeline;
  SystemDependenceGraph::Stats SDG;
  double SliceMarked = 0;
};

/// The outputs a check needs; kept only when asked for.
struct KeptIter {
  std::unique_ptr<Module> M;
  std::vector<std::unique_ptr<Module>> Slices;
};

/// Runs one iteration on \p Jobs threads and returns its output text;
/// \p Err is non-empty when the iteration failed.
std::string runIteration(const Input &In, unsigned Jobs, TracedIter *T,
                         KeptIter *K, std::string &Err) {
  LayerTable *L = T ? &T->Layers : nullptr;
  const bool Slice = In.W->S == Shape::Slice;
  std::unique_ptr<Module> M;
  {
    Step S(L, "ir.parse");
    ParseModuleResult R = parseModule(In.Source);
    if (!R.ok()) {
      Err = "parse error: " + R.Error;
      return {};
    }
    M = std::move(R.M);
  }
  {
    Step S(L, "ir.verify");
    for (const auto &F : M->functions())
      for (const std::string &E : verifyFunction(*F))
        Err += "verifier: " + F->name() + ": " + E + "\n";
    if (Slice)
      for (const std::string &E : verifyModuleCalls(*M))
        Err += "calls: " + E + "\n";
  }
  if (!Err.empty())
    return {};
  {
    // Hygiene findings are warnings (depflow-opt without --strict).
    Step S(L, "ir.hygiene");
    for (const auto &F : M->functions())
      verifyDefUseHygiene(*F);
  }

  std::string Text;
  std::optional<SystemDependenceGraph> G;
  if (!Slice) {
    {
      Step S(L, "pass.pipeline", /*Workers=*/true);
      ModulePipelineOptions MPO;
      MPO.Jobs = Jobs;
      ModulePipelineResult PR = runPipelineOnModule(*M, In.Pipe, MPO);
      if (!PR.ok())
        Err = PR.combinedStatus().str();
      if (T)
        T->Pipeline = std::move(PR);
    }
    Step S(L, "ir.print");
    Text = printModule(*M);
  } else {
    {
      Step S(L, "sdg.build", /*Workers=*/true);
      SDGBuildOptions SO;
      SO.Jobs = Jobs;
      G.emplace(SystemDependenceGraph::build(*M, SO));
    }
    if (T)
      T->SDG = G->stats();
    // The criteria are independent reads of one graph. As with the
    // pipeline's function tasks, Jobs threads claim them by atomic index and
    // results commit by index, so the text is the same at any Jobs.
    struct SliceSlot {
      std::string Text, Err;
      std::unique_ptr<Module> Sliced;
      double Marked = 0;
      LayerTable Layers;
    };
    std::vector<SliceSlot> Slots(In.Criteria.size());
    std::atomic<unsigned> Next{0};
    auto Worker = [&] {
      for (unsigned I; (I = Next.fetch_add(1)) < Slots.size();) {
        const SliceCriterion &C = In.Criteria[I];
        SliceSlot &Out = Slots[I];
        LayerTable *WL = T ? &Out.Layers : nullptr;
        std::vector<unsigned> Crit;
        std::vector<char> Bwd, Fwd;
        {
          Step S(WL, "sdg.slice_bwd");
          Status RS = resolveCriterion(*G, C, Crit);
          if (!RS.ok()) {
            Out.Err = "criterion " + C.Func + ":" + std::to_string(C.Line) +
                      ": " + RS.str();
            continue;
          }
          Bwd = sliceSDG(*G, Crit, SliceDirection::Backward);
        }
        {
          Step S(WL, "sdg.extract");
          Out.Sliced = extractBackwardSlice(*M, *G, Bwd);
        }
        {
          Step S(WL, "ir.print");
          Out.Text = printModule(*Out.Sliced);
        }
        {
          Step S(WL, "sdg.slice_fwd");
          Fwd = sliceSDG(*G, Crit, SliceDirection::Forward);
          for (auto [FI, Line] : sliceLines(*G, Fwd))
            Out.Text +=
                M->function(FI)->name() + ":" + std::to_string(Line) + "\n";
        }
        Out.Marked = double(std::count(Bwd.begin(), Bwd.end(), 1) +
                            std::count(Fwd.begin(), Fwd.end(), 1));
      }
    };
    {
      Step S(L, "sdg.slices", /*Workers=*/true);
      std::vector<std::thread> Pool;
      for (unsigned W = 1; W < Jobs; ++W)
        Pool.emplace_back([&Worker, W] {
          if (obs::TraceRecorder::global().enabled())
            obs::TraceRecorder::global().setCurrentThreadName(
                "slice-worker-" + std::to_string(W));
          Worker();
        });
      Worker();
      for (std::thread &Th : Pool)
        Th.join();
    }
    for (SliceSlot &Out : Slots) {
      Text += Out.Text;
      if (Err.empty())
        Err = Out.Err;
      if (T) {
        T->SliceMarked += Out.Marked;
        for (const auto &[Name, Sample] : Out.Layers) {
          T->WorkerLayers[Name].Ms += Sample.Ms;
          T->WorkerLayers[Name].AllocBytes += Sample.AllocBytes;
        }
      }
      if (K && Out.Sliced)
        K->Slices.push_back(std::move(Out.Sliced));
    }
    if (!K) {
      Step S(L, "ir.free");
      Slots.clear();
    }
  }
  if (K) {
    K->M = std::move(M);
  } else {
    Step S(L, "ir.free");
    G.reset();
    M.reset();
  }
  return Text;
}

std::uint64_t digest(const std::string &Text) {
  std::uint64_t H = 1469598103934665603ULL; // FNV-1a 64.
  for (unsigned char C : Text) {
    H ^= C;
    H *= 1099511628211ULL;
  }
  return H;
}

//===----------------------------------------------------------------------===//
// Set-up, the timed loop, and the checks
//===----------------------------------------------------------------------===//

struct Tally {
  unsigned Attempted = 0;
  unsigned Failed = 0;
  void note(bool Ok, const std::string &What) {
    ++Attempted;
    if (Ok)
      return;
    if (Failed++ < 3)
      std::fprintf(stderr, "depflow_e2e: FAILED: %s\n", What.c_str());
  }
};

/// Input generation, the Jobs = 1 reference run whose digest every timed
/// iteration must match, and one warm-up iteration. Returns its seconds.
double setUp(const Workload &W, std::uint64_t Seed, unsigned Jobs, Input &In,
             std::uint64_t &RefDigest, Tally &Checks) {
  const auto T0 = Clock::now();
  Status S = makeInput(W, Seed, In);
  if (!S.ok()) {
    std::fprintf(stderr, "depflow_e2e: set-up failed: %s\n", S.str().c_str());
    std::exit(1);
  }
  std::string Err;
  RefDigest = digest(runIteration(In, 1, nullptr, nullptr, Err));
  Checks.note(Err.empty(), "reference run: " + Err);
  Err.clear();
  std::uint64_t Warm = digest(runIteration(In, Jobs, nullptr, nullptr, Err));
  Checks.note(Err.empty() && Warm == RefDigest,
              "warm-up iteration differs from the reference run " + Err);
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

struct LoopSamples {
  std::vector<double> IterMs;
  std::vector<double> AllocMb;
};

using Series = std::map<std::string, std::vector<double>>;

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  std::size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// Linear-interpolation percentile, \p P in [0, 100].
double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = P / 100.0 * double(V.size() - 1);
  std::size_t Lo = std::size_t(Pos);
  std::size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (Pos - double(Lo)) * (V[Hi] - V[Lo]);
}

// Registry counters read as per-iteration deltas in the traced run.
struct CounterRef {
  const char *Metric;
  const char *Group;
  const char *Name;
};
const CounterRef Counters[] = {
    {"structure.ce_edges_visited", "cycle-equiv", "NumCEEdgesVisited"},
    {"structure.sese_regions", "sese", "NumSESERegions"},
    {"core.dfg_base_edges", "dfg-build", "NumDFGBaseEdges"},
    {"core.dfg_bypass_redirects", "dfg-build", "NumDFGBypassRedirects"},
    {"dataflow.cp_dfg_tokens", "constprop", "NumCPDFGTokensSent"},
    {"dataflow.ant_dfg_evals", "ant", "NumAntDFGEvals"},
    {"dataflow.pre_pav_evals", "pre", "NumPREPavEvals"},
    {"dataflow.pre_rounds", "pre", "NumPREPPRounds"},
    {"ssa.phis_placed", "ssa", "NumPhisPlaced"},
};

/// Per-layer series from one traced iteration.
void addTraced(const TracedIter &T, const double CounterDelta[],
               Series &Out) {
  // The sdg layer of a pipeline workload comes from the layer probe.
  const bool SDG = T.SDG.Nodes != 0;
  static const char *const TimedLayers[] = {
      "ir.parse", "ir.verify", "ir.hygiene", "ir.print", "pass.pipeline"};
  static const char *const SDGLayers[] = {"sdg.build", "sdg.slice_bwd",
                                          "sdg.slice_fwd", "sdg.extract"};
  static const char *const AllocLayers[] = {"ir.parse", "ir.print"};
  static const char *const SDGAllocLayers[] = {"sdg.build", "sdg.extract"};
  auto Layer = [&](const char *Name) {
    LayerSample Sum;
    for (const LayerTable *Table : {&T.Layers, &T.WorkerLayers})
      if (auto It = Table->find(Name); It != Table->end()) {
        Sum.Ms += It->second.Ms;
        Sum.AllocBytes += It->second.AllocBytes;
      }
    return Sum;
  };
  for (const char *Name : TimedLayers)
    Out[std::string(Name) + "_ms"].push_back(Layer(Name).Ms);
  for (const char *Name : AllocLayers)
    Out[std::string(Name) + "_alloc_mb"].push_back(Layer(Name).AllocBytes /
                                                   MiB);
  for (const char *Name : SDGLayers)
    if (SDG)
      Out[std::string(Name) + "_ms"].push_back(Layer(Name).Ms);
  for (const char *Name : SDGAllocLayers)
    if (SDG)
      Out[std::string(Name) + "_alloc_mb"].push_back(Layer(Name).AllocBytes /
                                                     MiB);

  // Pass layer: the pipeline's own PassInstrumentation records, summed
  // over functions (CPU time across workers, not wall time).
  std::map<std::string, PassInstrumentation::Record> ByPass;
  for (const PassInstrumentation::Record &R : T.Pipeline.aggregatePassRecords())
    ByPass[R.Pass] = R;
  for (const char *P : AllPasses) {
    const PassInstrumentation::Record &R = ByPass[P];
    Out[std::string("pass.") + P + "_cpu_ms"].push_back(R.Seconds * 1e3);
    Out[std::string("pass.") + P + "_alloc_mb"].push_back(
        double(R.AllocBytes) / MiB);
  }
  double DfgMisses = 0, TaskMax = 0;
  for (const FunctionAnalysisManager::Counter &C :
       T.Pipeline.aggregateCounters())
    if (C.Name == "dfg")
      DfgMisses = double(C.Misses);
  for (const FunctionPipelineResult &FR : T.Pipeline.Functions)
    TaskMax = std::max(TaskMax, FR.TaskSeconds * 1e3);
  Out["pass.analysis_hits"].push_back(double(T.Pipeline.totalHits()));
  Out["pass.analysis_misses"].push_back(double(T.Pipeline.totalMisses()));
  Out["pass.dfg_builds_per_fn"].push_back(
      !T.Pipeline.Functions.empty()
          ? DfgMisses / double(T.Pipeline.Functions.size())
          : 0);
  Out["pass.task_ms_max"].push_back(TaskMax);

  // Scheduler layer, from the runs SchedRecorder captured this iteration.
  double PUtil = 0, PCrit = 0, PWait = 0, SUtil = 0, SCrit = 0, SLevels = 0;
  for (const obs::SchedRun &R : obs::SchedRecorder::global().snapshot()) {
    obs::SchedRunReport Rep = obs::analyzeSchedRun(R);
    double Util = Rep.WallUs > 0 ? Rep.WorkUs / (Rep.WallUs * R.Jobs) : 0;
    if (R.Name == "module-pipeline") {
      double Wait = 0;
      for (const obs::SchedTask &Tk : R.Tasks)
        Wait += Tk.StartUs - Tk.EnqueueUs;
      PUtil = Util;
      PCrit = Rep.CriticalPathUs / 1e3;
      PWait = R.Tasks.empty() ? 0 : Wait / double(R.Tasks.size()) / 1e3;
    } else if (R.Name == "sdg-build") {
      SUtil = Util;
      SCrit = Rep.CriticalPathUs / 1e3;
      SLevels = R.NumLevels;
    }
  }
  Out["sched.pipeline_utilization"].push_back(PUtil);
  Out["sched.pipeline_critical_path_ms"].push_back(PCrit);
  Out["sched.pipeline_queue_wait_ms"].push_back(PWait);
  Out["sched.sdg_utilization"].push_back(SUtil);
  Out["sched.sdg_critical_path_ms"].push_back(SCrit);
  Out["sched.sdg_levels"].push_back(SLevels);

  if (SDG) {
    Out["sdg.nodes"].push_back(T.SDG.Nodes);
    Out["sdg.edges"].push_back(T.SDG.Edges);
    Out["sdg.summary_edges"].push_back(T.SDG.SummaryEdges);
    Out["sdg.summary_rounds"].push_back(T.SDG.SummaryRounds);
    Out["sdg.slice_marked_nodes"].push_back(T.SliceMarked);
  }
  for (std::size_t I = 0; I != std::size(Counters); ++I)
    Out[Counters[I].Metric].push_back(CounterDelta[I]);
}

/// The closed loop: iterations back to back for \p Seconds. With \p Traced
/// set, every iteration is also timed layer by layer into \p Traced, and
/// the trace recorder ends holding the last iteration's events.
void timedLoop(const Input &In, unsigned Jobs, std::uint64_t RefDigest,
               double Seconds, LoopSamples &S, Tally &Iters,
               Series *Traced) {
  const auto Start = Clock::now();
  do {
    std::optional<TracedIter> T;
    double Before[std::size(Counters)] = {};
    if (Traced) {
      T.emplace();
      obs::TraceRecorder::global().reset();
      obs::SchedRecorder::global().reset();
      for (std::size_t I = 0; I != std::size(Counters); ++I)
        Before[I] = double(statisticValue(Counters[I].Group, Counters[I].Name));
    }
    std::string Err;
    const std::uint64_t A0 = obs::processAllocatedBytes();
    const auto T0 = Clock::now();
    std::string Text;
    {
      obs::TraceSpan Span("bench", "iteration");
      Text = runIteration(In, Jobs, T ? &*T : nullptr, nullptr, Err);
    }
    const double Ms = msSince(T0);
    const double Mb = double(obs::processAllocatedBytes() - A0) / MiB;
    // Hash after the timer stops.
    Iters.note(Err.empty() && digest(Text) == RefDigest,
               Err.empty() ? "output differs from the Jobs = 1 reference"
                           : Err);
    S.IterMs.push_back(Ms);
    S.AllocMb.push_back(Mb);
    if (Traced) {
      double Delta[std::size(Counters)];
      for (std::size_t I = 0; I != std::size(Counters); ++I)
        Delta[I] = double(statisticValue(Counters[I].Group, Counters[I].Name)) -
                   Before[I];
      addTraced(*T, Delta, *Traced);
      double Covered = 0;
      for (const auto &[Name, L] : T->Layers)
        Covered += L.Ms;
      (*Traced)["trace.span_coverage_pct"].push_back(100.0 * Covered / Ms);


    }
  } while (msSince(Start) < Seconds * 1e3);
}

/// Instruction and interpreter-step totals of the input and of the output.
/// For slices, the step ratio is the mean of per-criterion ratios instead:
/// a few long-running criteria would dominate a ratio of sums.
struct Sizes {
  double InInstrs = 0, OutInstrs = 0;
  double InSteps = 0, OutSteps = 0;
  std::vector<double> StepRatios;
};

/// Output size, output run time, and the semantic oracles, on one untimed
/// iteration (every timed iteration produced the same text).
void runChecks(const Input &In, unsigned Jobs, std::uint64_t Seed, Sizes &Z,
               Tally &Checks) {
  KeptIter K;
  std::string Err;
  runIteration(In, Jobs, nullptr, &K, Err);
  Checks.note(Err.empty(), "check iteration: " + Err);
  if (!Err.empty())
    return;

  if (In.W->S == Shape::Slice) {
    for (std::size_t I = 0; I != K.Slices.size(); ++I) {
      const SliceCriterion &C = In.Criteria[I];
      const Module &Sliced = *K.Slices[I];
      Z.InInstrs += In.NumInstrs;
      Z.OutInstrs += Sliced.numInstructions();
      std::string Bad;
      for (const auto &F : Sliced.functions())
        for (const std::string &E : verifyFunction(*F))
          Bad += F->name() + ": " + E + "; ";
      ModuleExecOptions EO;
      EO.MaxSteps = Fuel;
      EO.WatchFunc = C.Func;
      EO.WatchLine = C.Line;
      ExecResult Ref = runModule(*K.M, *K.M->lookup(C.Func), In.RunInputs, EO);
      ExecResult Got =
          runModule(Sliced, *Sliced.lookup(C.Func), In.RunInputs, EO);
      double In0 = double(Ref.Steps), Out0 = double(Got.Steps);
      if (!Got.Halted || Got.WatchTrace != Ref.WatchTrace)
        Bad += "watch trace differs from the original; ";
      for (const std::vector<std::int64_t> &V : In.StepInputs) {
        ExecResult B = runModule(*K.M, *K.M->lookup(C.Func), V, EO);
        if (!B.Halted)
          continue;
        ExecResult A = runModule(Sliced, *Sliced.lookup(C.Func), V, EO);
        In0 += double(B.Steps);
        Out0 += double(A.Steps);
        if (!A.Halted || A.WatchTrace != B.WatchTrace)
          Bad += "watch trace differs on another input; ";
      }
      Z.InSteps += In0;
      Z.OutSteps += Out0;
      Z.StepRatios.push_back(Out0 / In0);
      Checks.note(Ref.Halted && Bad.empty(), "slice " + C.Func + ":" +
                                                 std::to_string(C.Line) +
                                                 ": " + Bad);
    }
    return;
  }

  ParseModuleResult P = parseModule(In.Source);
  const Module &Orig = *P.M;
  // PRE's guarantee is checked against the function as PRE received it:
  // earlier passes rewrite expressions, so the input is the wrong baseline.
  std::vector<PassId> Prefix;
  for (PassId Id : In.Pipe.passes()) {
    if (Id == PassId::PRE)
      break;
    Prefix.push_back(Id);
  }
  ParseModuleResult Q = parseModule(In.Source);
  Module &BeforePRE = *Q.M;
  if (!Prefix.empty()) {
    ModulePipelineOptions MPO;
    MPO.Jobs = Jobs;
    ModulePipelineResult PR = runPipelineOnModule(
        BeforePRE, PassPipeline(Prefix, In.Pipe.options()), MPO);
    Checks.note(PR.ok(), "passes before pre: " + PR.combinedStatus().str());
  }
  RNG OracleRand(Seed ^ 0x0dd0a11ce0dd0a11ULL);
  Z.InInstrs = Orig.numInstructions();
  Z.OutInstrs = K.M->numInstructions();
  for (unsigned I = 0; I != Orig.numFunctions(); ++I) {
    const Function &Before = *Orig.function(I);
    const Function &After = *K.M->function(I);
    OracleOptions OO;
    OO.MaxSteps = Fuel;
    Status S = diffExecutions(Before, After, OracleRand, OO);
    Checks.note(S.ok(), After.name() + ": " + S.str());
    std::vector<Expression> Watched =
        preWatchedExpressions(*BeforePRE.function(I));
    OO.NoNewComputationsOf = &Watched;
    S = diffExecutions(*BeforePRE.function(I), After, OracleRand, OO);
    Checks.note(S.ok(), After.name() + " (pre): " + S.str());
    // Run time counts only runs the input finishes within the fuel.
    for (const std::vector<std::int64_t> &V : In.StepInputs) {
      ExecResult B = runFunction(Before, V, Fuel);
      if (!B.Halted)
        continue;
      Z.InSteps += double(B.Steps);
      Z.OutSteps += double(runFunction(After, V, 4 * Fuel).Steps);
    }
  }
}

//===----------------------------------------------------------------------===//
// Layer probe
//===----------------------------------------------------------------------===//

template <typename A>
void probeOne(FunctionAnalysisManager &AM, const char *Name, LayerTable &T) {
  obs::AllocDelta D;
  const auto T0 = Clock::now();
  AM.getResult<A>();
  LayerSample &S = T[Name];
  S.Ms += msSince(T0);
  S.AllocBytes += double(D.bytes());
}

/// The sdg layer on a pipeline workload's module, which has no calls: the
/// SDG build, then for criteria in 16 evenly spaced functions a backward
/// slice, its extraction, and a forward slice with sliceLines.
void probeSDG(Module &M, unsigned Jobs, Series &Out) {
  SDGBuildOptions SO;
  SO.Jobs = Jobs;
  const std::uint64_t B0 = obs::processAllocatedBytes();
  auto T0 = Clock::now();
  SystemDependenceGraph G = SystemDependenceGraph::build(M, SO);
  Out["sdg.build_ms"].push_back(msSince(T0));
  Out["sdg.build_alloc_mb"].push_back(
      double(obs::processAllocatedBytes() - B0) / MiB);
  double BwdMs = 0, FwdMs = 0, ExtractMs = 0, ExtractBytes = 0, Marked = 0;
  for (unsigned K = 0; K != 16; ++K) {
    const Function &F = *M.function(K * M.numFunctions() / 16);
    std::vector<const Instruction *> Cands = watchable(F);
    if (Cands.empty())
      continue;
    std::vector<unsigned> Crit;
    T0 = Clock::now();
    if (!resolveCriterion(G, {F.name(), Cands.back()->line()}, Crit).ok())
      continue;
    std::vector<char> Bwd = sliceSDG(G, Crit, SliceDirection::Backward);
    BwdMs += msSince(T0);
    obs::AllocDelta D;
    T0 = Clock::now();
    std::unique_ptr<Module> Sliced = extractBackwardSlice(M, G, Bwd);
    ExtractMs += msSince(T0);
    ExtractBytes += double(D.bytes());
    T0 = Clock::now();
    std::vector<char> Fwd = sliceSDG(G, Crit, SliceDirection::Forward);
    sliceLines(G, Fwd);
    FwdMs += msSince(T0);
    Marked += double(std::count(Bwd.begin(), Bwd.end(), 1) +
                     std::count(Fwd.begin(), Fwd.end(), 1));
  }
  Out["sdg.slice_bwd_ms"].push_back(BwdMs);
  Out["sdg.slice_fwd_ms"].push_back(FwdMs);
  Out["sdg.extract_ms"].push_back(ExtractMs);
  Out["sdg.extract_alloc_mb"].push_back(ExtractBytes / MiB);
  Out["sdg.nodes"].push_back(G.stats().Nodes);
  Out["sdg.edges"].push_back(G.stats().Edges);
  Out["sdg.summary_edges"].push_back(G.stats().SummaryEdges);
  Out["sdg.summary_rounds"].push_back(G.stats().SummaryRounds);
  Out["sdg.slice_marked_nodes"].push_back(Marked);
}

/// For each input function, a fresh analysis manager computes one layer per
/// getResult call, in dependency order. Pipeline workloads also get the sdg
/// layer (probeSDG). Repeats for \p Seconds.
void runProbe(const Input &In, unsigned Jobs, double Seconds, Series &Out) {
  static const char *const Layers[] = {
      "structure.cfg_edges", "structure.cycle_equiv", "structure.pst",
      "core.dfg",            "cdg.factored_cdg",      "dataflow.range",
      "dataflow.taint",      "dataflow.nulluse"};
  const auto Start = Clock::now();
  do {
    ParseModuleResult R = parseModule(In.Source);
    LayerTable T;
    for (const auto &F : R.M->functions()) {
      FunctionAnalysisManager AM(*F);
      probeOne<CFGEdgesAnalysis>(AM, Layers[0], T);
      probeOne<CycleEquivAnalysis>(AM, Layers[1], T);
      probeOne<PSTAnalysis>(AM, Layers[2], T);
      probeOne<DFGAnalysis>(AM, Layers[3], T);
      probeOne<FactoredCDGAnalysis>(AM, Layers[4], T);
      probeOne<RangeAnalysis>(AM, Layers[5], T);
      probeOne<TaintAnalysis>(AM, Layers[6], T);
      probeOne<NullUseAnalysis>(AM, Layers[7], T);
    }
    const auto T0 = Clock::now();
    CallGraph::build(*R.M);
    Out["sdg.callgraph_ms"].push_back(msSince(T0));
    if (In.W->S == Shape::Pipeline)
      probeSDG(*R.M, Jobs, Out);
    for (const char *Name : Layers) {
      Out[std::string(Name) + "_ms"].push_back(T[Name].Ms);
      Out[std::string(Name) + "_alloc_mb"].push_back(T[Name].AllocBytes / MiB);
    }
  } while (msSince(Start) < Seconds * 1e3);
}

//===----------------------------------------------------------------------===//
// Reporting
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  const char *Unit;
  double Value;
};

void printResult(bool Correct, const Tally &All,
                 const std::vector<Metric> &Metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %u, \"failed\": %u, "
              "\"metrics\": {",
              Correct ? "true" : "false", All.Attempted, All.Failed);
  for (std::size_t I = 0; I != Metrics.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Metrics[I].Name.c_str(), Metrics[I].Value,
                Metrics[I].Unit);
  std::printf("}}\n");
}

const char *layerUnit(const std::string &Name) {
  auto Ends = [&](const char *Suffix) {
    std::size_t N = std::strlen(Suffix);
    return Name.size() >= N && Name.compare(Name.size() - N, N, Suffix) == 0;
  };
  if (Name.find("_ms") != std::string::npos)
    return "ms";
  if (Ends("_mb"))
    return "MB";
  if (Ends("_pct"))
    return "%";
  if (Ends("utilization") || Ends("_per_fn"))
    return "ratio";
  return "count";
}

unsigned benchJobs() {
  // Four workers, never more than the machine has.
  return std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
}

//===----------------------------------------------------------------------===//
// Self-tests: the failure counting and the slice oracle can fail.
//===----------------------------------------------------------------------===//

int selfTest(std::uint64_t Seed) {
  const unsigned Jobs = benchJobs();
  int Bad = 0;

  // An armed fault point must surface as failed iterations.
  {
    Input In;
    std::uint64_t Ref = 0;
    Tally Checks, Iters;
    setUp(Workloads[0], Seed, Jobs, In, Ref, Checks);
    Status S = configureFaultInjection("pass-fail:pre@1");
    if (!S.ok()) {
      std::fprintf(stderr, "self-test: %s\n", S.str().c_str());
      return 1;
    }
    LoopSamples LS;
    timedLoop(In, Jobs, Ref, 1.0, LS, Iters, nullptr);
    clearFaultInjection();
    double Ratio = double(Iters.Failed) / double(Iters.Attempted);
    std::printf("self-test fault: pass-fail:pre@1 -> %u of %u iterations "
                "failed, fail_ratio %.4f: %s\n",
                Iters.Failed, Iters.Attempted, Ratio,
                Ratio > 0 ? "ok" : "NOT DETECTED");
    Bad += Ratio > 0 ? 0 : 1;
  }

  // A tampered slice must fail the watch-trace oracle; untampered slices
  // must pass it.
  {
    Input In;
    std::uint64_t Ref = 0;
    Tally Setup;
    setUp(Workloads[2], Seed, Jobs, In, Ref, Setup);
    Sizes Z;
    Tally Clean;
    runChecks(In, Jobs, Seed, Z, Clean);
    std::printf("self-test slice: %u of %u untampered slices rejected: %s\n",
                Clean.Failed, Clean.Attempted, Clean.Failed ? "FALSE ALARM"
                                                            : "ok");
    Bad += Clean.Failed ? 1 : 0;

    KeptIter K;
    std::string Err;
    runIteration(In, Jobs, nullptr, &K, Err);
    unsigned Tampered = 0, Caught = 0;
    for (std::size_t I = 0; I != K.Slices.size(); ++I) {
      const SliceCriterion &C = In.Criteria[I];
      Function *F = K.Slices[I]->lookup(C.Func);
      Instruction *Victim = nullptr;
      for (const auto &BB : F->blocks())
        for (const auto &Inst : BB->instructions())
          if (!Victim && Inst->line() == C.Line && Inst->isDefinition() &&
              Inst->numOperands())
            Victim = Inst.get();
      if (!Victim)
        continue;
      const Operand &Op = Victim->operand(0);
      Victim->setOperand(0, Operand::imm(Op.isImm() ? Op.imm() + 7 : 7919));
      ++Tampered;
      ModuleExecOptions EO;
      EO.MaxSteps = Fuel;
      EO.WatchFunc = C.Func;
      EO.WatchLine = C.Line;
      ExecResult Want = runModule(*K.M, *K.M->lookup(C.Func), In.RunInputs, EO);
      ExecResult Got = runModule(*K.Slices[I], *F, In.RunInputs, EO);
      if (!Got.Halted || Got.WatchTrace != Want.WatchTrace)
        ++Caught;
    }
    std::printf("self-test slice: %u of %u tampered slices caught: %s\n",
                Caught, Tampered, Caught ? "ok" : "NOT DETECTED");
    Bad += Caught ? 0 : 1;
  }
  std::printf("self-test: %s\n", Bad ? "FAILED" : "passed");
  return Bad ? 1 : 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: depflow_e2e --workload module-opt|bigfn-opt|sdg-slice "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n"
               "       depflow_e2e --self-test [--seed N]\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string WorkloadName, TraceOut;
  std::uint64_t Seed = 1;
  double Seconds = 10;
  int Trace = 0;
  bool SelfTest = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    bool HasValue = I + 1 < Argc;
    if (A == "--self-test")
      SelfTest = true;
    else if (A == "--workload" && HasValue)
      WorkloadName = Argv[++I];
    else if (A == "--seed" && HasValue)
      Seed = std::strtoull(Argv[++I], nullptr, 10);
    else if (A == "--seconds" && HasValue)
      Seconds = std::strtod(Argv[++I], nullptr);
    else if (A == "--trace" && HasValue)
      Trace = std::atoi(Argv[++I]);
    else if (A == "--trace-out" && HasValue)
      TraceOut = Argv[++I];
    else
      return usage();
  }
  if (SelfTest)
    return selfTest(Seed);

  const Workload *W = nullptr;
  for (const Workload &Cand : Workloads)
    if (WorkloadName == Cand.Name)
      W = &Cand;
  if (!W || !(Seconds > 0) || (Trace != 0 && Trace != 1))
    return usage();

  const unsigned Jobs = benchJobs();
  Tally Checks, Iters;
  Input In;
  std::uint64_t RefDigest = 0;
  // Set-up runs several times; its median is setup_s.
  std::vector<double> SetupS;
  for (unsigned Rep = 0; Rep != 5; ++Rep)
    SetupS.push_back(setUp(*W, Seed, Jobs, In, RefDigest, Checks));
  std::fprintf(stderr,
               "depflow_e2e: %s seed %llu: %u input instructions, %zu slice "
               "criteria, jobs %u\n",
               W->Name, (unsigned long long)Seed, In.NumInstrs,
               In.Criteria.size(), Jobs);

  std::vector<Metric> Metrics;
  // The first iterations after set-up run up to twice as slow while the
  // worker threads' CPUs come back up to speed; they are not timed.
  LoopSamples Warm, LS;
  timedLoop(In, Jobs, RefDigest, WarmUpSeconds, Warm, Iters, nullptr);
  if (Trace == 0) {
    timedLoop(In, Jobs, RefDigest, Seconds, LS, Iters, nullptr);
  } else {
    // Thirds: untraced iterations (the overhead baseline), traced
    // iterations, and the layer probe.
    timedLoop(In, Jobs, RefDigest, Seconds / 3, LS, Iters, nullptr);
    LoopSamples Traced;
    Series Layers;
    obs::TraceRecorder::global().setEnabled(true);
    obs::TraceRecorder::global().setCurrentThreadName("main");
    obs::SchedRecorder::global().setEnabled(true);
    timedLoop(In, Jobs, RefDigest, Seconds / 3, Traced, Iters, &Layers);
    obs::TraceRecorder::global().setEnabled(false);
    obs::SchedRecorder::global().setEnabled(false);
    if (!TraceOut.empty()) {
      Status S = obs::TraceRecorder::global().writeChromeJson(TraceOut);
      Checks.note(S.ok(), "writing the trace: " + S.str());
    }
    runProbe(In, Jobs, Seconds / 3, Layers);
    double Untraced = median(LS.IterMs);
    Layers["trace.overhead_pct"].push_back(
        100.0 * (median(Traced.IterMs) - Untraced) / Untraced);
    Checks.note(median(Layers["trace.span_coverage_pct"]) >= 95.0,
                "benchmark spans cover less than 95% of iteration time");
    for (const auto &[Name, Values] : Layers)
      Metrics.push_back({Name, layerUnit(Name), median(Values)});
  }

  Sizes Z;
  runChecks(In, Jobs, Seed, Z, Checks);
  std::fprintf(stderr,
               "depflow_e2e: instructions %.0f -> %.0f, steps %.0f -> %.0f\n",
               Z.InInstrs, Z.OutInstrs, Z.InSteps, Z.OutSteps);

  Tally All;
  All.Attempted = Iters.Attempted + Checks.Attempted;
  All.Failed = Iters.Failed + Checks.Failed;
  const double FailRatio = double(All.Failed) / double(All.Attempted);
  std::fprintf(stderr,
               "depflow_e2e: %zu timed iterations (p90 wants >= 100), "
               "%u checks, %u failed\n",
               LS.IterMs.size(), Checks.Attempted, All.Failed);
  std::fprintf(stderr,
               "depflow_e2e: iteration ms min %.2f p10 %.2f p50 %.2f p90 %.2f "
               "max %.2f\n",
               percentile(LS.IterMs, 0), percentile(LS.IterMs, 10),
               percentile(LS.IterMs, 50), percentile(LS.IterMs, 90),
               percentile(LS.IterMs, 100));


  if (Trace == 0) {
    double MeanMs = 0;
    for (double Ms : LS.IterMs)
      MeanMs += Ms;
    MeanMs /= double(LS.IterMs.size());
    Metrics = {
        {"setup_s", "s", median(SetupS)},
        {"iter_ms_p50", "ms", median(LS.IterMs)},
        {"iter_ms_p90", "ms", percentile(LS.IterMs, 90)},
        {"instrs_per_s", "1/s", In.NumInstrs / (MeanMs / 1e3)},
        {"alloc_mb_per_iter", "MB", median(LS.AllocMb)},
        {"peak_rss_mb", "MB", double(obs::peakRSSBytes()) / MiB},
        {"out_instrs_ratio", "ratio", Z.OutInstrs / Z.InInstrs},
        {"out_steps_ratio", "ratio",
         Z.StepRatios.empty()
             ? Z.OutSteps / Z.InSteps
             : std::accumulate(Z.StepRatios.begin(), Z.StepRatios.end(), 0.0) /
                   double(Z.StepRatios.size())},
        {"ok_ratio", "ratio", 1.0 - FailRatio},
    };
  }
  printResult(All.Failed == 0, All, Metrics);
  return 0;
}
