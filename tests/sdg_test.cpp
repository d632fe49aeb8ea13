//===- tests/sdg_test.cpp - Call graph, SDG, and slicing tests ------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
// Covers the interprocedural layer: call-graph SCC condensation and level
// schedule, SDG construction (parameter, return, and io plumbing), summary
// edges over recursion, hand-computed forward/backward slices on a
// three-function fixture, executable slice extraction through the
// library's trace-equivalence oracle (checkSliceExecution), -j
// determinism of the sdg counter group, and a golden digest of whole
// graphs (every node, edge and build statistic) at -j1 and -j4.
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "sdg/Slicer.h"
#include "sdg/SystemDependenceGraph.h"
#include "support/Statistic.h"
#include "verify/Oracles.h"
#include "workload/Generators.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

using namespace depflow;

namespace {

std::unique_ptr<Module> parseModuleOrDie(std::string_view Source) {
  ParseModuleResult R = parseModule(Source);
  if (!R.ok()) {
    std::fprintf(stderr, "parseModuleOrDie: %s\n%s", R.Error.c_str(),
                 sourceExcerpt(Source, R.ErrorLine).c_str());
    std::abort();
  }
  return std::move(R.M);
}

unsigned indexOf(const Module &M, const char *Name) {
  for (unsigned I = 0; I != M.numFunctions(); ++I)
    if (M.function(I)->name() == Name)
      return I;
  std::abort();
}

/// True when some instruction of \p F carries source line \p Line.
bool hasLine(const Function &F, unsigned Line) {
  for (const auto &BB : F.blocks())
    for (const auto &I : BB->instructions())
      if (I->line() == Line)
        return true;
  return false;
}

/// (function name, line) pairs of a slice, for hand-checked expectations.
std::set<std::pair<std::string, unsigned>>
namedSliceLines(const SystemDependenceGraph &G, const char *Func,
                unsigned Line, SliceDirection Dir) {
  SliceCriterion C;
  C.Func = Func;
  C.Line = Line;
  std::vector<unsigned> Nodes;
  Status S = resolveCriterion(G, C, Nodes);
  EXPECT_TRUE(S.ok()) << S.str();
  std::vector<char> Marks = sliceSDG(G, Nodes, Dir);
  std::set<std::pair<std::string, unsigned>> Out;
  for (auto [FI, L] : sliceLines(G, Marks))
    Out.insert({G.module().function(FI)->name(), L});
  return Out;
}

//===----------------------------------------------------------------------===//
// Call graph: SCC condensation and the level schedule.
//===----------------------------------------------------------------------===//

TEST(CallGraphTest, MutualRecursionCondensesToOneSCC) {
  // a <-> b mutually recursive; c calls into the cycle; leaf is isolated.
  auto M = parseModuleOrDie(R"(
func a(n) {
e:
  x = call b(n)
  ret x
}
func b(n) {
e:
  x = call a(n)
  ret x
}
func c() {
e:
  x = call a(3)
  ret x
}
func leaf() {
e:
  ret 1
}
)");
  CallGraph CG = CallGraph::build(*M);
  unsigned A = indexOf(*M, "a"), B = indexOf(*M, "b"), C = indexOf(*M, "c"),
           L = indexOf(*M, "leaf");
  EXPECT_EQ(CG.numSCCs(), 3u);
  EXPECT_EQ(CG.sccOf(A), CG.sccOf(B));
  EXPECT_NE(CG.sccOf(A), CG.sccOf(C));
  EXPECT_NE(CG.sccOf(A), CG.sccOf(L));
  EXPECT_TRUE(CG.isRecursive(CG.sccOf(A)));
  EXPECT_FALSE(CG.isRecursive(CG.sccOf(C)));
  EXPECT_FALSE(CG.isRecursive(CG.sccOf(L)));
  // The cycle and the leaf call nothing outside themselves: level 0.
  // c calls the cycle: one level above it.
  EXPECT_EQ(CG.levelOf(CG.sccOf(A)), 0u);
  EXPECT_EQ(CG.levelOf(CG.sccOf(L)), 0u);
  EXPECT_EQ(CG.levelOf(CG.sccOf(C)), 1u);
  EXPECT_EQ(CG.numLevels(), 2u);
  // Bottom-up SCC ids: callees before callers.
  EXPECT_LT(CG.sccOf(A), CG.sccOf(C));
}

TEST(CallGraphTest, SelfCallIsRecursive) {
  auto M = parseModuleOrDie(R"(
func r(n) {
e:
  t = n > 0
  if t goto rec else out
rec:
  m = n - 1
  x = call r(m)
  goto out
out:
  ret x
}
)");
  CallGraph CG = CallGraph::build(*M);
  EXPECT_EQ(CG.numSCCs(), 1u);
  EXPECT_TRUE(CG.isRecursive(0));
  ASSERT_EQ(CG.sites().size(), 1u);
  EXPECT_EQ(CG.sites()[0].Caller, 0u);
  EXPECT_EQ(CG.sites()[0].Callee, 0u);
}

TEST(CallGraphTest, SitesInModuleOrder) {
  auto M = parseModuleOrDie(R"(
func top() {
e:
  x = call mid()
  y = call bot()
  ret y
}
func mid() {
e:
  x = call bot()
  ret x
}
func bot() {
e:
  ret 7
}
)");
  CallGraph CG = CallGraph::build(*M);
  ASSERT_EQ(CG.sites().size(), 3u);
  EXPECT_EQ(CG.sites()[0].Caller, indexOf(*M, "top"));
  EXPECT_EQ(CG.sites()[0].Callee, indexOf(*M, "mid"));
  EXPECT_EQ(CG.sites()[1].Caller, indexOf(*M, "top"));
  EXPECT_EQ(CG.sites()[1].Callee, indexOf(*M, "bot"));
  EXPECT_EQ(CG.sites()[2].Caller, indexOf(*M, "mid"));
  EXPECT_EQ(CG.sites()[2].Callee, indexOf(*M, "bot"));
  // Three levels: bot < mid < top.
  EXPECT_EQ(CG.numLevels(), 3u);
}

//===----------------------------------------------------------------------===//
// Hand-computed slices on a three-function fixture. Line numbers are the
// parse lines of the raw string below (the leading newline is line 1).
//===----------------------------------------------------------------------===//

// 1  (blank)
// 2  func main() {
// 3  e:
// 4    a = read()
// 5    b = read()
// 6    s = call add1(a)
// 7    t = b * 2
// 8    u = s + 1
// 9    ret u
// 10 }
// 11 func add1(p) {
// 12 e:
// 13   q = p + 1
// 14   ret q
// 15 }
// 16 func unused(z) {
// 17 e:
// 18   w = z * 3
// 19   ret w
// 20 }
const char *FixtureSrc = R"(
func main() {
e:
  a = read()
  b = read()
  s = call add1(a)
  t = b * 2
  u = s + 1
  ret u
}
func add1(p) {
e:
  q = p + 1
  ret q
}
func unused(z) {
e:
  w = z * 3
  ret w
}
)";

TEST(SliceTest, BackwardFromCallerDescendsIntoCallee) {
  auto M = parseModuleOrDie(FixtureSrc);
  SystemDependenceGraph G = SystemDependenceGraph::build(*M);
  auto Lines = namedSliceLines(G, "main", 8, SliceDirection::Backward);
  // u = s + 1 needs the call, its argument's read, and the callee body.
  EXPECT_TRUE(Lines.count({"main", 4})); // a = read()
  EXPECT_TRUE(Lines.count({"main", 6})); // s = call add1(a)
  EXPECT_TRUE(Lines.count({"main", 8})); // the criterion
  EXPECT_TRUE(Lines.count({"add1", 13})); // q = p + 1
  // Irrelevant computation stays out: the second read feeds only t, and
  // nothing reads io after the slice's last read.
  EXPECT_FALSE(Lines.count({"main", 5})); // b = read()
  EXPECT_FALSE(Lines.count({"main", 7})); // t = b * 2
  // Uncalled functions contribute nothing.
  for (const auto &[F, L] : Lines)
    EXPECT_NE(F, "unused") << "line " << L;
}

TEST(SliceTest, BackwardFromCalleeAscendsToCallSites) {
  auto M = parseModuleOrDie(FixtureSrc);
  SystemDependenceGraph G = SystemDependenceGraph::build(*M);
  auto Lines = namedSliceLines(G, "add1", 13, SliceDirection::Backward);
  // q = p + 1 depends on the formal, hence on every call site's argument.
  EXPECT_TRUE(Lines.count({"add1", 13}));
  EXPECT_TRUE(Lines.count({"main", 6})); // the call site
  EXPECT_TRUE(Lines.count({"main", 4})); // the argument's read
  // But not on what the caller does with the result.
  EXPECT_FALSE(Lines.count({"main", 8}));
  EXPECT_FALSE(Lines.count({"main", 5}));
  EXPECT_FALSE(Lines.count({"main", 7}));
}

TEST(SliceTest, ForwardFollowsValueThroughCallAndReturn) {
  auto M = parseModuleOrDie(FixtureSrc);
  SystemDependenceGraph G = SystemDependenceGraph::build(*M);
  auto Lines = namedSliceLines(G, "main", 4, SliceDirection::Forward);
  // a flows through the call into add1 and back out into u, then ret.
  EXPECT_TRUE(Lines.count({"main", 4}));
  EXPECT_TRUE(Lines.count({"main", 6}));
  EXPECT_TRUE(Lines.count({"add1", 13}));
  EXPECT_TRUE(Lines.count({"main", 8}));
  EXPECT_TRUE(Lines.count({"main", 9})); // ret u
  // The io chain also runs forward: the second read consumes the stream
  // position this read advances.
  EXPECT_TRUE(Lines.count({"main", 5}));
}

TEST(SliceTest, ForwardFromSecondReadStaysLocal) {
  auto M = parseModuleOrDie(FixtureSrc);
  SystemDependenceGraph G = SystemDependenceGraph::build(*M);
  auto Lines = namedSliceLines(G, "main", 5, SliceDirection::Forward);
  // b feeds only t; no read or may-read call follows, so the io chain
  // ends here and the callee is never entered.
  EXPECT_TRUE(Lines.count({"main", 5}));
  EXPECT_TRUE(Lines.count({"main", 7}));
  EXPECT_FALSE(Lines.count({"main", 8}));
  EXPECT_FALSE(Lines.count({"main", 9}));
  for (const auto &[F, L] : Lines)
    EXPECT_EQ(F, "main") << F << ":" << L;
}

//===----------------------------------------------------------------------===//
// Executable extraction: the io chain keeps read positions aligned, and
// the extracted module reproduces the criterion's watch trace.
//===----------------------------------------------------------------------===//

TEST(SliceTest, ExtractionKeepsEarlierReadsForStreamPosition) {
  // 1 blank / 2 func main() { / 3 e: / 4 x = read() / 5 y = read() ...
  auto M = parseModuleOrDie(R"(
func main() {
e:
  x = read()
  y = read()
  ret y
}
)");
  ModuleExecOptions EO;
  EO.WatchFunc = "main";
  EO.WatchLine = 5;
  ExecResult Ref = runModule(*M, *M->function(0), {7, 9}, EO);
  ASSERT_TRUE(Ref.Halted);
  ASSERT_EQ(Ref.WatchTrace, (std::vector<std::int64_t>{9}));
  std::unique_ptr<Module> Sliced;
  Status S = checkSliceExecution(*M, {7, 9}, EO, Ref.WatchTrace, 1, &Sliced);
  EXPECT_TRUE(S.ok()) << S.str();

  // x = read() computes nothing y needs — except the stream position.
  // Dropping it would hand y the wrong input; the io chain must keep it.
  EXPECT_TRUE(hasLine(*Sliced->function(0), 4));
}

TEST(SliceTest, ExtractedSliceDropsIndependentComputation) {
  auto M = parseModuleOrDie(FixtureSrc);
  // b = read() survives only if the io chain needs it — it does not here
  // (no read follows the slice's last io use at line 4... the call reads
  // nothing), so input 2 is never consumed and the trace still matches.
  ModuleExecOptions EO;
  EO.WatchFunc = "main";
  EO.WatchLine = 8;
  ExecResult Ref = runModule(*M, *M->function(0), {5, 11}, EO);
  ASSERT_TRUE(Ref.Halted);
  ASSERT_EQ(Ref.WatchTrace, (std::vector<std::int64_t>{7})); // add1(5)+1
  std::unique_ptr<Module> Sliced;
  Status S = checkSliceExecution(*M, {5, 11}, EO, Ref.WatchTrace, 1, &Sliced);
  EXPECT_TRUE(S.ok()) << S.str();

  // t = b * 2 (line 7) is gone.
  for (const auto &F : Sliced->functions())
    EXPECT_FALSE(hasLine(*F, 7)) << F->name();
}

TEST(SliceTest, BranchOutsideSliceIsRewiredPastItsRegion) {
  // The branch on c guards only the dead assignment to d; slicing on x
  // must drop the branch and still execute both reads' stream effects.
  // 1 blank / 2 func / 3 e: / 4 c = read() / 5 x = 1 / 6 if c ... /
  // 7 t: / 8 d = 2 / 9 goto join / 10 j: / 11 x = x + 3 / 12 ret x
  auto M = parseModuleOrDie(R"(
func main() {
e:
  c = read()
  x = 1
  if c goto t else j
t:
  d = 2
  goto j
j:
  x = x + 3
  ret x
}
)");
  // d = 2 (line 8) and the branch (line 6) are out; the slice must still
  // run and agree at the criterion on both branch outcomes.
  ModuleExecOptions EO;
  EO.WatchFunc = "main";
  EO.WatchLine = 11;
  for (std::int64_t In : {0, 1}) {
    ExecResult Ref = runModule(*M, *M->function(0), {In}, EO);
    ASSERT_TRUE(Ref.Halted);
    std::unique_ptr<Module> Sliced;
    Status S = checkSliceExecution(*M, {In}, EO, Ref.WatchTrace, 1, &Sliced);
    EXPECT_TRUE(S.ok()) << "input " << In << ": " << S.str();
    EXPECT_FALSE(hasLine(*Sliced->function(0), 8));
  }
}

//===----------------------------------------------------------------------===//
// Summary edges across recursion, and the counter group's -j determinism.
//===----------------------------------------------------------------------===//

TEST(SDGTest, RecursiveSummaryReachesFixpoint) {
  auto M = parseModuleOrDie(R"(
func main() {
e:
  x = read()
  r = call fact(x)
  ret r
}
func fact(n) {
e:
  t = n > 1
  if t goto rec else base
rec:
  m = n - 1
  s = call fact(m)
  p = n * s
  goto done
base:
  p = 1
  goto done
done:
  ret p
}
)");
  SystemDependenceGraph G = SystemDependenceGraph::build(*M);
  // The self-call's argument must reach its result through a summary
  // edge (n -> m -> recursive result -> p -> ret).
  EXPECT_GT(G.stats().SummaryEdges, 0u);
  // A recursive SCC needs at least two rounds: one to seed, one to
  // observe the fixpoint.
  EXPECT_GE(G.stats().SummaryRounds, 2u);

  // End to end: the backward slice from main's result contains the whole
  // recursive kernel and reproduces the interpreter's observations.
  ModuleExecOptions EO;
  EO.WatchFunc = "main";
  EO.WatchLine = 5;
  ExecResult Ref = runModule(*M, *M->function(0), {5}, EO);
  ASSERT_TRUE(Ref.Halted);
  ASSERT_EQ(Ref.WatchTrace, (std::vector<std::int64_t>{120}));
  Status S = checkSliceExecution(*M, {5}, EO, Ref.WatchTrace);
  EXPECT_TRUE(S.ok()) << S.str();
}

TEST(SDGTest, CounterGroupIsIdenticalAcrossJobCounts) {
  static const char *const Names[] = {
      "NumSDGNodes",         "NumSDGEdges",      "NumSDGSummaryEdges",
      "NumSDGCallSites",     "NumSDGSCCs",       "NumSDGLevels",
      "NumSDGSummaryRounds", "MaxSDGSCCSize",    "MaxSDGLevelWidth",
      "HistSDGSummaryPorts"};
  auto Snapshot = [](unsigned Jobs) {
    resetStatistics();
    auto M = generateCallModule(12, 20260808);
    SDGBuildOptions SO;
    SO.Jobs = Jobs;
    SystemDependenceGraph G = SystemDependenceGraph::build(*M, SO);
    std::vector<std::uint64_t> Values;
    for (const char *N : Names)
      Values.push_back(statisticValue("sdg", N));
    EXPECT_GT(G.numNodes(), 0u);
    return Values;
  };
  std::vector<std::uint64_t> J1 = Snapshot(1);
  std::vector<std::uint64_t> J8 = Snapshot(8);
  for (std::size_t I = 0; I != J1.size(); ++I)
    EXPECT_EQ(J1[I], J8[I]) << Names[I];
  EXPECT_GT(J1[0], 0u); // The snapshot measured something.
  resetStatistics();
}

TEST(SDGTest, GeneratedCallModulesVerifyAndBuild) {
  for (std::uint64_t Seed : {1ull, 2ull, 3ull, 4ull}) {
    auto M = generateCallModule(5, Seed);
    for (const auto &F : M->functions()) {
      std::vector<std::string> Errs = verifyFunction(*F);
      EXPECT_TRUE(Errs.empty())
          << "seed " << Seed << " " << F->name() << ": " << Errs.front();
    }
    EXPECT_TRUE(verifyModuleCalls(*M).empty()) << "seed " << Seed;
    // The module round-trips through the printer and parser (the oracle's
    // line-stamping path).
    ParseModuleResult R = parseModule(printModule(*M));
    ASSERT_TRUE(R.ok()) << R.Error;
    SystemDependenceGraph G = SystemDependenceGraph::build(*R.M);
    EXPECT_GT(G.numNodes(), 0u);
  }
}

//===----------------------------------------------------------------------===//
// Golden graphs: the node list, the edge list and the build statistics of
// fixed modules, pinned by size and FNV-1a digest. Any change to which
// nodes or edges the SDG creates, or to their order, fails here.
//===----------------------------------------------------------------------===//

/// FNV-1a over a sequence of unsigned fields.
struct FieldDigest {
  std::uint64_t H = 14695981039346656037ull;
  void add(std::uint64_t V) {
    for (unsigned B = 0; B != 8; ++B) {
      H ^= (V >> (8 * B)) & 0xff;
      H *= 1099511628211ull;
    }
  }
};

struct GraphDigest {
  unsigned Nodes, Edges;
  std::uint64_t NodeDigest, EdgeDigest, StatsDigest;
};

GraphDigest digestOf(const SystemDependenceGraph &G) {
  FieldDigest N, E, S;
  for (unsigned Id = 0; Id != G.numNodes(); ++Id) {
    const SystemDependenceGraph::Node &Nd = G.node(Id);
    N.add(unsigned(Nd.Kind));
    N.add(Nd.Func);
    N.add(Nd.I ? Nd.I->line() : 0);
    N.add(Nd.Aux);
    N.add(Nd.Aux2);
  }
  for (unsigned Id = 0; Id != G.numEdges(); ++Id) {
    const SystemDependenceGraph::Edge &Ed = G.edge(Id);
    E.add(Ed.Src);
    E.add(Ed.Dst);
    E.add(unsigned(Ed.Kind));
  }
  const SystemDependenceGraph::Stats &St = G.stats();
  for (unsigned V : {St.Nodes, St.Edges, St.SummaryEdges, St.CallSites,
                     St.SCCs, St.Levels, St.SummaryRounds})
    S.add(V);
  return {G.numNodes(), G.numEdges(), N.H, E.H, S.H};
}

/// Mutual recursion through a read, appended to a generated call module so
/// the golden set covers a recursive SCC (generated call graphs are DAGs).
const char *RecursiveTail = R"(
func ping(n) {
e:
  t = n > 0
  if t goto rec else out
rec:
  m = n - 1
  r = call pong(m)
  x = read()
  s = r + x
  goto done
out:
  s = call f3()
  goto done
done:
  ret s
}
func pong(n) {
e:
  r = call ping(n)
  u = r * 2
  ret u
}
)";

struct GoldenCase {
  const char *Name;
  GraphDigest Expected;
};

std::unique_ptr<Module> goldenModule(const std::string &Name) {
  if (Name == "calls.df") {
    std::ifstream In(std::string(DEPFLOW_PIPELINE_FIXTURES_DIR) + "/calls.df");
    std::stringstream Text;
    Text << In.rdbuf();
    return parseModuleOrDie(Text.str());
  }
  if (Name == "gen-12-seed-1")
    return generateCallModule(12, 1);
  if (Name == "gen-16-seed-20260808")
    return generateCallModule(16, 20260808);
  // gen-8-seed-3 plus the recursive pair.
  return parseModuleOrDie(printModule(*generateCallModule(8, 3)) +
                          RecursiveTail);
}

TEST(SDGGolden, GraphsMatchPinnedDigests) {
  static const GoldenCase Cases[] = {
      {"calls.df",
       {1082, 2443, 0x266ee8e23522287aull, 0x1886f2d4cde70896ull,
        0x6f4df141ae71a371ull}},
      {"gen-12-seed-1",
       {401, 862, 0xc5ca778eb2472d6bull, 0xfa7ae5497a273310ull,
        0x87ed8d16b28766b1ull}},
      {"gen-16-seed-20260808",
       {603, 1447, 0xb9a67c0cc36b4981ull, 0xba3176b697ce64f1ull,
        0xfa7ead9bf21767b4ull}},
      {"gen-8-seed-3+recursion",
       {325, 663, 0x9614f095bc9a52e8ull, 0xf1e2abcb01676cadull,
        0xe368f2113dd2cb9eull}},
  };
  unsigned RecursiveSCCs = 0;
  for (const GoldenCase &C : Cases) {
    std::unique_ptr<Module> M = goldenModule(C.Name);
    CallGraph CG = CallGraph::build(*M);
    for (unsigned SCC = 0; SCC != CG.numSCCs(); ++SCC)
      RecursiveSCCs += CG.isRecursive(SCC);
    for (unsigned Jobs : {1u, 4u}) {
      SDGBuildOptions SO;
      SO.Jobs = Jobs;
      GraphDigest D = digestOf(SystemDependenceGraph::build(*M, SO));
      SCOPED_TRACE(std::string(C.Name) + " at -j" + std::to_string(Jobs));
      EXPECT_EQ(D.Nodes, C.Expected.Nodes);
      EXPECT_EQ(D.Edges, C.Expected.Edges);
      EXPECT_EQ(D.NodeDigest, C.Expected.NodeDigest) << std::hex
                                                     << D.NodeDigest;
      EXPECT_EQ(D.EdgeDigest, C.Expected.EdgeDigest) << std::hex
                                                     << D.EdgeDigest;
      EXPECT_EQ(D.StatsDigest, C.Expected.StatsDigest) << std::hex
                                                       << D.StatsDigest;
    }
  }
  EXPECT_GT(RecursiveSCCs, 0u); // The summary fixpoint over an SCC is pinned.
}

} // namespace
