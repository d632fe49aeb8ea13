//===- tests/dfg_golden_test.cpp - Golden DFG, PST and SSA fixtures -------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
// Pins the DFG node for node and edge for edge: every case renders
// `toDot` in both bypass modes and compares it byte for byte against
// tests/fixtures/dfg/<case>.<mode>.dot. The ids in the rendering are the
// graph's node and edge ids, so any change to what the builder creates,
// or to the order it creates it in, shows up as a diff.
//
// The same cases pin the structures the dominator trees feed: the program
// structure tree (`ProgramStructureTree::dump`, <case>.pst.txt) and the
// printed output of the `ssa` and `ssa-dfg` passes (<case>.ssa.txt,
// <case>.ssa-dfg.txt), whose version names follow the dominator tree's
// child order.
//
// The cases are the paper's Figure 1 and Figure 2 programs plus generated
// programs: structured, goto/irreducible, critical-edge loops, and
// programs after separateComputation.
//
// Regenerate the fixtures (only when a change to the graph is intended):
//   dfg_golden_test --update
//
//===----------------------------------------------------------------------===//

#include "core/DepFlowGraph.h"
#include "ParseOrDie.h"
#include "ir/CFGEdges.h"
#include "ir/Printer.h"
#include "ir/Transforms.h"
#include "pass/PassPipeline.h"
#include "structure/SESE.h"
#include "workload/Generators.h"

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>

using namespace depflow;

namespace {

bool UpdateFixtures = false;

const char *Figure1Src = R"(
func fig1(p) {
entry:
  x = 1
  if p goto thn else els
thn:
  y = 2
  goto join
els:
  y = 3
  goto join
join:
  y = y + 1
  z = x + y
  ret z
}
)";

const char *Figure2Src = R"(
func fig2(p) {
entry:
  x = 1
  if p goto thn else els
thn:
  y = 2
  goto join
els:
  y = 3
  goto join
join:
  z = x + y
  ret z
}
)";

std::unique_ptr<Function> separated(std::unique_ptr<Function> F) {
  separateComputation(*F);
  return F;
}

std::unique_ptr<Function> structured(std::uint64_t Seed, unsigned Stmts) {
  GenOptions Opts;
  Opts.Seed = Seed;
  Opts.TargetStmts = Stmts;
  return generateStructuredProgram(Opts);
}

struct GoldenCase {
  const char *Name;
  std::function<std::unique_ptr<Function>()> Make;
};

const GoldenCase Cases[] = {
    {"figure1", [] { return separated(parseFunctionOrDie(Figure1Src)); }},
    {"figure2", [] { return separated(parseFunctionOrDie(Figure2Src)); }},
    {"structured-s3", [] { return structured(3, 24); }},
    {"structured-s17", [] { return structured(17, 30); }},
    {"goto-s5", [] { return generateRandomCFGProgram(5, 16, 30, 8, 1); }},
    {"goto-s23", [] { return generateRandomCFGProgram(23, 14, 40, 10, 1); }},
    {"repeat-until", [] { return generateRepeatUntilChain(3, 3, 5); }},
    {"separated-goto-s11",
     [] { return separated(generateRandomCFGProgram(11, 14, 35, 8, 1)); }},
    {"separated-structured-s8", [] { return separated(structured(8, 24)); }},
};

std::string fixturePath(const std::string &Name, const char *Suffix) {
  return std::string(DEPFLOW_DFG_FIXTURES_DIR) + "/" + Name + "." + Suffix;
}

/// Compares \p Got against the fixture <case>.<Suffix>, or rewrites the
/// fixture under --update.
void checkFixture(const GoldenCase &C, const char *Suffix,
                  const std::string &Got) {
  std::string Path = fixturePath(C.Name, Suffix);
  if (UpdateFixtures) {
    std::ofstream(Path, std::ios::binary) << Got;
    return;
  }
  std::ifstream In(Path, std::ios::binary);
  ASSERT_TRUE(In.good()) << "missing fixture " << Path;
  std::stringstream Want;
  Want << In.rdbuf();
  EXPECT_EQ(Got, Want.str()) << C.Name << " differs from " << Path;
}

class DFGGoldenTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(DFGGoldenTest, ToDotMatchesFixture) {
  const GoldenCase &C = GetParam();
  auto F = C.Make();
  for (auto [Mode, Suffix] :
       {std::pair{DepFlowGraph::BypassMode::None, "none.dot"},
        std::pair{DepFlowGraph::BypassMode::SESE, "sese.dot"}})
    checkFixture(C, Suffix, DepFlowGraph::build(*F, Mode).toDot(*F));
}

TEST_P(DFGGoldenTest, PSTMatchesFixture) {
  const GoldenCase &C = GetParam();
  auto F = C.Make();
  F->recomputePreds();
  CFGEdges E(*F);
  ProgramStructureTree PST(*F, E, cycleEquivalenceClasses(*F, E));
  checkFixture(C, "pst.txt", PST.dump(*F, E));
}

TEST_P(DFGGoldenTest, SSAMatchesFixture) {
  const GoldenCase &C = GetParam();
  for (auto [P, Suffix] : {std::pair{PassId::SSA, "ssa.txt"},
                           std::pair{PassId::SSADfg, "ssa-dfg.txt"}}) {
    auto F = C.Make();
    FunctionAnalysisManager AM(*F);
    Status S = runPass(*F, P, AM);
    ASSERT_TRUE(S.ok()) << S.str();
    checkFixture(C, Suffix, printFunction(*F));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Fixtures, DFGGoldenTest, ::testing::ValuesIn(Cases),
    [](const ::testing::TestParamInfo<GoldenCase> &Info) {
      std::string Name = Info.param.Name;
      for (char &Ch : Name)
        if (Ch == '-')
          Ch = '_';
      return Name;
    });

} // namespace

int main(int argc, char **argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int I = 1; I < argc; ++I)
    if (std::strcmp(argv[I], "--update") == 0)
      UpdateFixtures = true;
  return RUN_ALL_TESTS();
}
