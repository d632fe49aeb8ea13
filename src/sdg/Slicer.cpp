//===- sdg/Slicer.cpp - Interprocedural program slicing -------------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "sdg/Slicer.h"

#include "ir/Verifier.h"
#include "support/Casting.h"

#include <algorithm>
#include <cassert>

using namespace depflow;

Status depflow::parseSliceCriterion(std::string_view Text,
                                    SliceCriterion &Out) {
  auto Fail = [&] {
    return Status::error("invalid slice criterion '" + std::string(Text) +
                         "': expected func:line");
  };
  std::size_t Colon = Text.rfind(':');
  if (Colon == std::string_view::npos || Colon == 0 ||
      Colon + 1 == Text.size())
    return Fail();
  std::string_view LineText = Text.substr(Colon + 1);
  unsigned Line = 0;
  for (char C : LineText) {
    if (C < '0' || C > '9')
      return Fail();
    Line = Line * 10 + unsigned(C - '0');
    if (Line > 1000000u)
      return Fail();
  }
  if (Line == 0)
    return Fail();
  Out.Func = std::string(Text.substr(0, Colon));
  Out.Line = Line;
  return Status::success();
}

Status depflow::resolveCriterion(const SystemDependenceGraph &G,
                                 const SliceCriterion &C,
                                 std::vector<unsigned> &Out) {
  const Module &M = G.module();
  int FI = -1;
  for (unsigned I = 0; I != M.numFunctions(); ++I)
    if (M.function(I)->name() == C.Func) {
      FI = int(I);
      break;
    }
  if (FI < 0)
    return Status::error("unknown function '" + C.Func +
                         "' in slice criterion");
  Out.clear();
  using NK = SystemDependenceGraph::NodeKind;
  for (unsigned N = 0; N != G.numNodes(); ++N) {
    const SystemDependenceGraph::Node &Nd = G.node(N);
    if (Nd.Func != unsigned(FI) || !Nd.I || Nd.I->line() != C.Line)
      continue;
    // The instruction itself, plus — for calls — the value the site
    // receives (the call's Instr node has no incoming data; arguments and
    // the returned value attach to the site's actual nodes).
    if (Nd.Kind == NK::Instr || Nd.Kind == NK::ActualOut)
      Out.push_back(N);
  }
  if (Out.empty())
    return Status::error("no instruction at line " + std::to_string(C.Line) +
                         " in function '" + C.Func + "'");
  return Status::success();
}

std::vector<char> depflow::sliceSDG(const SystemDependenceGraph &G,
                                    const std::vector<unsigned> &Criterion,
                                    SliceDirection Dir) {
  using EK = SystemDependenceGraph::EdgeKind;
  const bool Fwd = Dir == SliceDirection::Forward;

  auto Phase = [&](std::vector<char> &Mark, auto SkipEdge) {
    std::vector<unsigned> Work;
    for (unsigned N = 0; N != G.numNodes(); ++N)
      if (Mark[N])
        Work.push_back(N);
    while (!Work.empty()) {
      unsigned N = Work.back();
      Work.pop_back();
      for (unsigned EId : (Fwd ? G.outEdges(N) : G.inEdges(N))) {
        const SystemDependenceGraph::Edge &E = G.edge(EId);
        if (SkipEdge(E.Kind))
          continue;
        unsigned Next = Fwd ? E.Dst : E.Src;
        if (!Mark[Next]) {
          Mark[Next] = 1;
          Work.push_back(Next);
        }
      }
    }
  };
  auto SkipDescend = [](EK K) { return K == EK::ParamOut; };
  auto SkipAscend = [](EK K) { return K == EK::ParamIn || K == EK::Call; };

  std::vector<char> Mark(G.numNodes(), 0);
  for (unsigned N : Criterion)
    Mark[N] = 1;
  if (!Fwd) {
    Phase(Mark, SkipDescend); // Criterion's function and callers.
    Phase(Mark, SkipAscend);  // Descend into callees, never back up.
  } else {
    Phase(Mark, SkipAscend);  // Criterion's function and callees' callers.
    Phase(Mark, SkipDescend); // Descend into callees.
  }
  return Mark;
}

std::vector<std::pair<unsigned, unsigned>>
depflow::sliceLines(const SystemDependenceGraph &G,
                    const std::vector<char> &Marks) {
  std::vector<std::pair<unsigned, unsigned>> Lines;
  for (unsigned N = 0; N != G.numNodes(); ++N) {
    if (!Marks[N])
      continue;
    const SystemDependenceGraph::Node &Nd = G.node(N);
    if (Nd.I && Nd.I->line())
      Lines.push_back({Nd.Func, Nd.I->line()});
  }
  std::sort(Lines.begin(), Lines.end());
  Lines.erase(std::unique(Lines.begin(), Lines.end()), Lines.end());
  return Lines;
}

namespace {

/// Clones function \p FI of the SDG's module into a fresh function keeping
/// only the instructions whose Instr node is flagged in \p Kept, with
/// non-kept conditional branches rewired to the immediate postdominator of
/// their block.
std::unique_ptr<Function> sliceFunction(const SystemDependenceGraph &G,
                                        unsigned FI,
                                        const std::vector<char> &Kept) {
  const Function &F = *G.module().function(FI);
  auto NF = std::make_unique<Function>(F.name());
  // Same variable ids (the interner assigns densely in insertion order),
  // same parameters, same block ids and labels.
  for (VarId V = 0; V != F.numVars(); ++V)
    NF->makeVar(F.varName(V));
  for (VarId P : F.params())
    NF->addParam(P);
  std::vector<BasicBlock *> BlockMap(F.numBlocks());
  for (const auto &BB : F.blocks())
    BlockMap[BB->id()] = NF->makeBlock(BB->label());

  unsigned Node = G.firstInstrNode(FI);
  for (const auto &BB : F.blocks()) {
    BasicBlock *NB = BlockMap[BB->id()];
    for (const auto &IPtr : BB->instructions()) {
      const Instruction *I = IPtr.get();
      const bool IsKept = Kept[Node++];
      Instruction *Clone = nullptr;
      if (const auto *T = dyn_cast<JumpInst>(I)) {
        Clone = NB->setJump(BlockMap[T->target()->id()]);
      } else if (const auto *T = dyn_cast<RetInst>(I)) {
        Clone = NB->setRet(T->operands());
      } else if (const auto *T = dyn_cast<CondBrInst>(I)) {
        if (IsKept) {
          Clone = NB->setCondBr(T->cond(), BlockMap[T->trueTarget()->id()],
                                BlockMap[T->falseTarget()->id()]);
        } else {
          // Rewire past the region the branch guards: every instruction in
          // it is control-dependent on the branch, hence also outside the
          // slice.
          int IPD = G.ipdom(FI, BB->id());
          assert(IPD >= 0 && "branch block without a postdominator");
          NB->setJump(BlockMap[unsigned(IPD)]); // Synthesized: line 0.
          continue;
        }
      } else if (!IsKept) {
        continue;
      } else if (const auto *D = dyn_cast<CopyInst>(I)) {
        Clone = NB->appendCopy(D->def(), D->src());
      } else if (const auto *D = dyn_cast<UnaryInst>(I)) {
        Clone = NB->appendUnary(D->def(), D->op(), D->src());
      } else if (const auto *D = dyn_cast<BinaryInst>(I)) {
        Clone = NB->appendBinary(D->def(), D->op(), D->lhs(), D->rhs());
      } else if (const auto *D = dyn_cast<ReadInst>(I)) {
        Clone = NB->appendRead(D->def());
      } else if (const auto *D = dyn_cast<CallInst>(I)) {
        Clone = NB->appendCall(D->def(), D->callee(), D->operands());
      } else {
        assert(false && "unexpected instruction kind in slice extraction");
      }
      if (Clone)
        Clone->setLine(I->line());
    }
  }

  // Drop blocks the rewiring made unreachable.
  std::vector<bool> Keep(NF->numBlocks());
  markReachable(*NF, NF->entry(), /*Backward=*/false, Keep);
  NF->eraseBlocks(Keep);
  return NF;
}

} // namespace

std::unique_ptr<Module>
depflow::extractBackwardSlice(const Module &M, const SystemDependenceGraph &G,
                              const std::vector<char> &Marks) {
  assert(&G.module() == &M && "marks must come from this module's SDG");
  // One flag per Instr node: an instruction survives when any of its nodes
  // is marked; for calls the actual-in/out nodes count (a call can be in
  // the slice purely for its io effect or its returned value).
  std::vector<char> Kept(G.numNodes(), 0);
  using NK = SystemDependenceGraph::NodeKind;
  for (unsigned N = 0; N != G.numNodes(); ++N) {
    if (!Marks[N])
      continue;
    const SystemDependenceGraph::Node &Nd = G.node(N);
    switch (Nd.Kind) {
    case NK::Instr:
      Kept[N] = 1;
      break;
    case NK::ActualIn:
    case NK::ActualIOIn:
    case NK::ActualOut:
    case NK::ActualIOOut:
      Kept[G.callNode(Nd.Aux)] = 1;
      break;
    default:
      break;
    }
  }

  auto NM = std::make_unique<Module>(M.name());
  for (unsigned FI = 0; FI != M.numFunctions(); ++FI) {
    Status S = NM->addFunction(sliceFunction(G, FI, Kept));
    assert(S.ok() && "clone preserves unique names");
    (void)S;
  }
  return NM;
}
