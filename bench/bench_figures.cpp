//===- bench/bench_figures.cpp - Experiments F1, F2, F3, F6, F7 -----------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
// Regenerates the paper's worked figures as machine-checkable rows: each
// row shows the paper's expected artifact and the value this
// implementation computes; a mismatch makes the binary exit nonzero.
//
//===----------------------------------------------------------------------===//

#include "dataflow/Anticipatability.h"
#include "dataflow/ConstantPropagation.h"
#include "dataflow/DefUse.h"
#include "dataflow/PRE.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Transforms.h"
#include "obs/Bench.h"
#include "ssa/SSA.h"

#include <cstdio>
#include <cstdlib>

using namespace depflow;

// Example/bench sources are author-controlled, so a parse error is a bug
// here, not user input: report it on the diagnostic path and bail.
static std::unique_ptr<Function> parseOrDie(std::string_view Src) {
  ParseResult R = parseFunction(Src);
  if (!R.ok()) {
    std::fprintf(stderr, "parse error: %s\n%s", R.Error.c_str(),
                 sourceExcerpt(Src, R.ErrorLine).c_str());
    std::exit(1);
  }
  return std::move(R.Fn);
}

static int Failures = 0;
static obs::BenchReport Report("figures");

static void row(const char *Id, const char *What, const std::string &Expect,
                const std::string &Got) {
  bool OK = Expect == Got;
  if (!OK)
    ++Failures;
  std::printf("%-4s %-58s expected=%-14s got=%-14s %s\n", Id, What,
              Expect.c_str(), Got.c_str(), OK ? "ok" : "MISMATCH");
  Report.add(std::string(Id) + "/" + What, {{"reproduced", OK ? 1.0 : 0.0}},
             /*TimeUnit=*/"", /*Iterations=*/1);
}

static const Instruction *instrAt(const Function &F, const char *Label,
                                  unsigned Idx) {
  for (const auto &BB : F.blocks())
    if (BB->label() == Label)
      return BB->instructions()[Idx].get();
  return nullptr;
}

// Engine front doors with the figure harness's abort-on-failure
// convention: these fixtures are author-controlled, so a Status failure
// is a bug here.
static ConstPropResult solveCP(Function &F, const DepFlowGraph *G,
                               EvalMode Mode) {
  ConstPropResult R;
  if (!runConstantPropagation(F, G, Mode, R).ok())
    std::abort();
  return R;
}

static DFGAntResult solveRelAnt(Function &F, const DepFlowGraph &G,
                                const Expression &Ex, VarId X) {
  DFGAntResult R;
  if (!runRelativeAnticipatability(F, G, Ex, X, R).ok())
    std::abort();
  return R;
}

static void figure1() {
  auto F = parseOrDie(R"(
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
  y2 = y + 1
  z = x + y2
  ret z
}
)");
  // F1a: def-use chains sizes.
  ReachingDefs RD(*F);
  // Chains: p@if (1), y@y2 (2: both arms), x@z (1), y2@z (1), z@ret (1).
  row("F1", "def-use chains in the Figure 1 program",
      std::to_string(6), std::to_string(RD.numChains()));

  // F1b: SSA places exactly one phi (for y at the join), none for x.
  auto SSAFn = parseOrDie(printFunction(*F));
  PhiPlacement P = cytronPhiPlacement(*SSAFn, /*Pruned=*/true);
  unsigned Phis = 0;
  for (const auto &S : P)
    Phis += unsigned(S.size());
  row("F1", "SSA form: phi count (y at the join only)", "1",
      std::to_string(Phis));

  // F1c: in the DFG (computation separated), x has no switch or merge —
  // its dependence bypasses the conditional.
  separateComputation(*F);
  DepFlowGraph G = DepFlowGraph::build(*F);
  VarId X = unsigned(F->lookupVar("x"));
  unsigned XNodes = 0;
  for (const auto &BB : F->blocks())
    XNodes += unsigned(G.switchNode(BB.get(), X) >= 0) +
              unsigned(G.mergeNode(BB.get(), X) >= 0);
  row("F1", "DFG switch/merge nodes for x (diamond bypassed)", "0",
      std::to_string(XNodes));
  VarId Y = unsigned(F->lookupVar("y"));
  unsigned YMerges = 0;
  for (const auto &BB : F->blocks())
    YMerges += unsigned(G.mergeNode(BB.get(), Y) >= 0);
  row("F1", "DFG merge nodes for y (intercepted at the join)", "1",
      std::to_string(YMerges));
}

static void figure2() {
  // F2: construction stages — base level vs bypassed + dead-edge-removed.
  auto F = parseOrDie(R"(
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
)");
  separateComputation(*F);
  DepFlowGraph Base = DepFlowGraph::build(*F, DepFlowGraph::BypassMode::None);
  DepFlowGraph Full = DepFlowGraph::build(*F, DepFlowGraph::BypassMode::SESE);
  row("F2", "bypassing + dead edge removal shrinks the base graph", "yes",
      Full.numEdges() < Base.numEdges() ? "yes" : "no");
  std::printf("     (base level: %u edges; after bypassing: %u edges; "
              "%u redirects)\n",
              Base.numEdges(), Full.numEdges(),
              Full.stats().BypassRedirects);
}

static void figure3() {
  auto FA = parseOrDie(R"(
func fig3a(p) {
entry:
  if p goto thn else els
thn:
  z = 1
  x = z + 2
  goto join
els:
  z = 2
  x = z + 1
  goto join
join:
  y = x
  ret y
}
)");
  const Instruction *YDefA = instrAt(*FA, "join", 0);
  ReachingDefs RDA(*FA);
  row("F3a", "all-paths constant x=3: def-use chain algorithm", "3",
      defUseConstantPropagation(*FA, RDA).useValue(YDefA, 0).str());
  DepFlowGraph GA = DepFlowGraph::build(*FA);
  row("F3a", "all-paths constant x=3: DFG algorithm", "3",
      solveCP(*FA, &GA, EvalMode::SparseDFG).useValue(YDefA, 0).str());

  auto FB = parseOrDie(R"(
func fig3b() {
entry:
  p = 1
  if p goto thn else els
thn:
  x = 1
  goto join
els:
  x = 2
  goto join
join:
  y = x
  ret y
}
)");
  const Instruction *YDefB = instrAt(*FB, "join", 0);
  ReachingDefs RDB(*FB);
  row("F3b", "possible-paths constant: def-use chains miss it", "T",
      defUseConstantPropagation(*FB, RDB).useValue(YDefB, 0).str());
  row("F3b", "possible-paths constant: CFG algorithm finds x=1", "1",
      solveCP(*FB, nullptr, EvalMode::DenseCFG).useValue(YDefB, 0).str());
  DepFlowGraph GB = DepFlowGraph::build(*FB);
  row("F3b", "possible-paths constant: DFG algorithm finds x=1", "1",
      solveCP(*FB, &GB, EvalMode::SparseDFG).useValue(YDefB, 0).str());
}

static void figure6() {
  auto F = parseOrDie(R"(
func fig6(p) {
entry:
  x = read()
  if p goto a else b
a:
  y = x + 1
  goto join
b:
  z = x * 2
  w = x + 1
  goto join
join:
  ret x, y, z, w
}
)");
  CFGEdges E(*F);
  Expression XPlus1{BinOp::Add, Operand::var(unsigned(F->lookupVar("x"))),
                    Operand::imm(1)};
  DepFlowGraph G = DepFlowGraph::build(*F, E);
  VarId X = unsigned(F->lookupVar("x"));
  DFGAntResult R = solveRelAnt(*F, G, XPlus1, X);

  // The boundary edge into the non-e use of x (the paper's d4) is false;
  // the branch edges are anticipatable; ANT projected onto the CFG marks
  // both branch edges.
  const Instruction *ZDef = instrAt(*F, "b", 0);
  int UseNode = G.useNode(ZDef, 0);
  row("F6", "dependence into the x*2 use (d4) is false", "0",
      std::to_string(int(R.AntEdge[G.inEdges(unsigned(UseNode))[0]])));
  std::vector<bool> Proj =
      projectRelativeAnt(*F, E, G, R, X, ProjectionContext(*F, E));
  row("F6", "ANT projected onto entry->a", "1", std::to_string(int(Proj[0])));
  row("F6", "ANT projected onto entry->b", "1", std::to_string(int(Proj[1])));
  row("F6", "ANT projected onto a->join (behind the computations)", "0",
      std::to_string(int(Proj[2])));

  // The Section 5.2 caveat: busy code motion hoists although there is no
  // redundancy; Morel-Renvoise does not move anything.
  splitCriticalEdges(*F);
  CFGEdges E2(*F);
  CFGAntResult Ant;
  PREDecisions BCM, MR;
  if (!runCFGAnticipatability(*F, E2, XPlus1, Ant).ok() ||
      !runPRE(*F, E2, XPlus1, Ant.ANT, PREStrategy::Busy, BCM).ok() ||
      !runPRE(*F, E2, XPlus1, Ant.ANT, PREStrategy::MorelRenvoise, MR)
           .ok())
    std::abort();
  row("F6", "busy code motion inserts (superfluous motion)", ">0",
      BCM.Inserts.empty() ? "0" : ">0");
  row("F6", "Morel-Renvoise inserts (no redundancy, no motion)", "0",
      std::to_string(MR.Inserts.size()));
}

static void figure7() {
  auto F = parseOrDie(R"(
func fig7(p) {
entry:
  x = read()
  goto mid
mid:
  a = x * 3
  y = read()
  goto low
low:
  s = x + y
  ret a, s
}
)");
  CFGEdges E(*F);
  Expression XPlusY{BinOp::Add, Operand::var(unsigned(F->lookupVar("x"))),
                    Operand::var(unsigned(F->lookupVar("y")))};
  DepFlowGraph G = DepFlowGraph::build(*F, E);
  auto Bits = [&](const std::vector<bool> &V) {
    std::string S;
    for (bool B : V)
      S += B ? '1' : '0';
    return S;
  };
  DFGAntResult RX =
      solveRelAnt(*F, G, XPlusY, unsigned(F->lookupVar("x")));
  DFGAntResult RY =
      solveRelAnt(*F, G, XPlusY, unsigned(F->lookupVar("y")));
  ProjectionContext Ctx(*F, E);
  row("F7", "ANT(x+y) relative to x per edge [entry->mid, mid->low]", "11",
      Bits(projectRelativeAnt(*F, E, G, RX, unsigned(F->lookupVar("x")),
                              Ctx)));
  row("F7", "ANT(x+y) relative to y per edge (y reassigned in mid)", "01",
      Bits(projectRelativeAnt(*F, E, G, RY, unsigned(F->lookupVar("y")),
                              Ctx)));
  std::vector<bool> Combined;
  if (!runExpressionAnticipatability(*F, E, &G, XPlusY, EvalMode::SparseDFG,
                                     Combined, /*Pan=*/nullptr, &Ctx)
           .ok())
    std::abort();
  row("F7", "combined multivariable ANT(x+y) (conjunction)", "01",
      Bits(Combined));
}

int main() {
  std::printf("depflow: regenerating the paper's worked figures\n");
  std::printf("%-4s %-58s %-23s %-18s\n", "fig", "artifact", "", "");
  figure1();
  figure2();
  figure3();
  figure6();
  figure7();
  std::printf("\n%s (%d mismatches)\n",
              Failures == 0 ? "ALL FIGURES REPRODUCED" : "FAILURES",
              Failures);
  Status S = Report.writeIfRequested();
  if (!S.ok()) {
    std::fprintf(stderr, "bench_figures: %s\n", S.str().c_str());
    return 1;
  }
  return Failures == 0 ? 0 : 1;
}
