//===- workload/Generators.cpp - Synthetic program generators -------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "workload/Generators.h"

#include <algorithm>

using namespace depflow;

namespace {

/// Shared helpers for emitting random straight-line code.
class CodeEmitter {
public:
  Function &F;
  RNG &Rand;
  std::vector<VarId> Vars;
  unsigned ConstPct;
  unsigned ReadPct;
  // Sliding locality window (see GenOptions::ClusterWindow).
  unsigned Window = 0;
  unsigned WindowLo = 0;

  CodeEmitter(Function &F, RNG &Rand, unsigned NumVars, unsigned ConstPct,
              unsigned ReadPct)
      : F(F), Rand(Rand), ConstPct(ConstPct), ReadPct(ReadPct) {
    for (unsigned I = 0; I != NumVars; ++I)
      Vars.push_back(F.makeVar("v" + std::to_string(I)));
  }

  /// Slides the active window to cover variables around \p Progress (a
  /// fraction of the program already emitted, in per-mille).
  void setProgress(unsigned PerMille) {
    if (Window == 0 || Window >= Vars.size())
      return;
    WindowLo = unsigned((std::uint64_t(Vars.size() - Window) * PerMille) /
                        1000);
  }

  VarId randomVar() {
    if (Window == 0 || Window >= Vars.size())
      return Vars[Rand.nextBelow(Vars.size())];
    return Vars[WindowLo + Rand.nextBelow(Window)];
  }

  Operand randomOperand() {
    if (Rand.chance(ConstPct, 100))
      return Operand::imm(Rand.nextInRange(-4, 9));
    return Operand::var(randomVar());
  }

  void emitAssign(BasicBlock *BB) {
    VarId Def = randomVar();
    if (Rand.chance(ReadPct, 100)) {
      BB->appendRead(Def);
      return;
    }
    switch (Rand.nextBelow(3)) {
    case 0:
      BB->appendCopy(Def, randomOperand());
      break;
    case 1:
      BB->appendUnary(Def, Rand.chance(1, 2) ? UnOp::Neg : UnOp::Not,
                      randomOperand());
      break;
    default: {
      static const BinOp Ops[] = {BinOp::Add, BinOp::Sub, BinOp::Mul,
                                  BinOp::Div, BinOp::Eq,  BinOp::Lt,
                                  BinOp::And, BinOp::Or};
      BinOp Op = Ops[Rand.nextBelow(std::size(Ops))];
      BB->appendBinary(Def, Op, randomOperand(), randomOperand());
      break;
    }
    }
  }

  /// All variables as ret outputs (or just the active window when
  /// locality is on), so values are observable for the interpreter tests.
  void emitRet(BasicBlock *BB) {
    std::vector<Operand> Outs;
    if (Window != 0 && Window < Vars.size()) {
      for (unsigned I = 0; I != Window; ++I)
        Outs.push_back(Operand::var(Vars[WindowLo + I]));
    } else {
      for (VarId V : Vars)
        Outs.push_back(Operand::var(V));
    }
    BB->setRet(Outs);
  }
};

/// Recursive-descent structured program builder. Returns the block where
/// control continues after the construct.
class StructuredBuilder {
  CodeEmitter &C;
  const GenOptions &Opts;
  unsigned StmtsLeft;
  unsigned NextLabel = 0;

public:
  StructuredBuilder(CodeEmitter &C, const GenOptions &Opts)
      : C(C), Opts(Opts), StmtsLeft(Opts.TargetStmts) {}

  /// Emits top-level sequences until the statement budget is spent.
  BasicBlock *run(BasicBlock *Entry) {
    BasicBlock *Cur = Entry;
    while (StmtsLeft > 0) {
      C.setProgress(1000 - (StmtsLeft * 1000) / Opts.TargetStmts);
      Cur = emitSeq(Cur, 0);
    }
    return Cur;
  }

  BasicBlock *freshBlock(const char *Hint) {
    return C.F.makeBlock(std::string(Hint) + std::to_string(NextLabel++));
  }

  /// Emits a statement sequence starting in \p BB; returns the block that
  /// control falls out of.
  BasicBlock *emitSeq(BasicBlock *BB, unsigned Depth) {
    unsigned Items = 1 + unsigned(C.Rand.nextBelow(4));
    for (unsigned I = 0; I != Items && StmtsLeft > 0; ++I) {
      unsigned Roll = unsigned(C.Rand.nextBelow(100));
      if (Depth < Opts.MaxDepth && Roll < Opts.LoopPct && StmtsLeft > 2) {
        BB = emitWhile(BB, Depth + 1);
      } else if (Depth < Opts.MaxDepth && Roll < Opts.LoopPct + Opts.IfPct &&
                 StmtsLeft > 2) {
        BB = emitIf(BB, Depth + 1);
      } else {
        C.emitAssign(BB);
        --StmtsLeft;
      }
    }
    return BB;
  }

  BasicBlock *emitIf(BasicBlock *BB, unsigned Depth) {
    BasicBlock *Then = freshBlock("then");
    BasicBlock *Join = freshBlock("join");
    bool HasElse = Opts.EmitElse && C.Rand.chance(1, 2);
    BasicBlock *Else = HasElse ? freshBlock("els") : Join;
    BB->setCondBr(Operand::var(C.randomVar()), Then, Else);
    StmtsLeft -= std::min(StmtsLeft, 1u);
    BasicBlock *ThenEnd = emitSeq(Then, Depth);
    ThenEnd->setJump(Join);
    if (HasElse) {
      BasicBlock *ElseEnd = emitSeq(Else, Depth);
      ElseEnd->setJump(Join);
    }
    return Join;
  }

  BasicBlock *emitWhile(BasicBlock *BB, unsigned Depth) {
    BasicBlock *Header = freshBlock("head");
    BasicBlock *Body = freshBlock("body");
    BasicBlock *After = freshBlock("after");
    BB->setJump(Header);
    Header->setCondBr(Operand::var(C.randomVar()), Body, After);
    StmtsLeft -= std::min(StmtsLeft, 1u);
    BasicBlock *BodyEnd = emitSeq(Body, Depth);
    BodyEnd->setJump(Header);
    return After;
  }
};

} // namespace

std::unique_ptr<Function> depflow::generateStructuredProgram(
    const GenOptions &Opts) {
  auto F = std::make_unique<Function>("gen");
  RNG Rand(Opts.Seed);
  CodeEmitter C(*F, Rand, Opts.NumVars, Opts.ConstPct, Opts.ReadPct);
  C.Window = Opts.ClusterWindow;
  BasicBlock *Entry = F->makeBlock("entry");
  StructuredBuilder B(C, Opts);
  BasicBlock *Last = B.run(Entry);
  C.emitRet(Last);
  F->recomputePreds();
  return F;
}

std::unique_ptr<Function> depflow::generateRandomCFGProgram(
    std::uint64_t Seed, unsigned NumBlocks, unsigned ExtraEdgePct,
    unsigned NumVars, unsigned StmtsPerBlock) {
  assert(NumBlocks >= 2 && "need at least entry and exit");
  auto F = std::make_unique<Function>("rand");
  RNG Rand(Seed);
  CodeEmitter C(*F, Rand, NumVars, /*ConstPct=*/40, /*ReadPct=*/15);

  std::vector<BasicBlock *> Blocks;
  for (unsigned I = 0; I != NumBlocks; ++I)
    Blocks.push_back(F->makeBlock("b" + std::to_string(I)));

  for (unsigned I = 0; I != NumBlocks; ++I) {
    for (unsigned S = 0; S != StmtsPerBlock; ++S)
      C.emitAssign(Blocks[I]);
    if (I + 1 == NumBlocks) {
      C.emitRet(Blocks[I]);
      continue;
    }
    // Base chain edge keeps everything reachable in both directions; a
    // random second successor (never the entry, never a duplicate) makes
    // the block a switch and can create arbitrary, even irreducible, loops.
    BasicBlock *Next = Blocks[I + 1];
    if (NumBlocks > 3 && Rand.chance(ExtraEdgePct, 100)) {
      unsigned T = 1 + unsigned(Rand.nextBelow(NumBlocks - 1));
      if (Blocks[T] != Next && Blocks[T] != Blocks[I]) {
        Blocks[I]->setCondBr(Operand::var(C.randomVar()), Next, Blocks[T]);
        continue;
      }
    }
    Blocks[I]->setJump(Next);
  }
  F->recomputePreds();
  return F;
}

std::unique_ptr<Function> depflow::generateDiamondChain(unsigned K,
                                                        unsigned NumVars,
                                                        std::uint64_t Seed) {
  auto F = std::make_unique<Function>("diamonds");
  RNG Rand(Seed);
  CodeEmitter C(*F, Rand, NumVars, 40, 10);
  BasicBlock *Cur = F->makeBlock("entry");
  C.emitAssign(Cur);
  for (unsigned I = 0; I != K; ++I) {
    std::string N = std::to_string(I);
    BasicBlock *Then = F->makeBlock("t" + N);
    BasicBlock *Else = F->makeBlock("e" + N);
    BasicBlock *Join = F->makeBlock("j" + N);
    Cur->setCondBr(Operand::var(C.randomVar()), Then, Else);
    C.emitAssign(Then);
    C.emitAssign(Else);
    Then->setJump(Join);
    Else->setJump(Join);
    C.emitAssign(Join);
    Cur = Join;
  }
  C.emitRet(Cur);
  F->recomputePreds();
  return F;
}

std::unique_ptr<Function> depflow::generateNestedLoops(unsigned Depth,
                                                       unsigned BodiesPerLevel,
                                                       unsigned NumVars,
                                                       std::uint64_t Seed) {
  auto F = std::make_unique<Function>("loops");
  RNG Rand(Seed);
  CodeEmitter C(*F, Rand, NumVars, 40, 10);
  unsigned Label = 0;

  // Recursively: loop headers with BodiesPerLevel sequential nested loops.
  struct Emit {
    Function &F;
    CodeEmitter &C;
    unsigned &Label;
    unsigned BodiesPerLevel;

    BasicBlock *loops(BasicBlock *Cur, unsigned Depth) {
      if (Depth == 0) {
        C.emitAssign(Cur);
        return Cur;
      }
      for (unsigned I = 0; I != BodiesPerLevel; ++I) {
        std::string N = std::to_string(Label++);
        BasicBlock *Head = F.makeBlock("h" + N);
        BasicBlock *Body = F.makeBlock("b" + N);
        BasicBlock *After = F.makeBlock("a" + N);
        Cur->setJump(Head);
        Head->setCondBr(Operand::var(C.randomVar()), Body, After);
        BasicBlock *BodyEnd = loops(Body, Depth - 1);
        BodyEnd->setJump(Head);
        C.emitAssign(After);
        Cur = After;
      }
      return Cur;
    }
  };

  BasicBlock *Entry = F->makeBlock("entry");
  C.emitAssign(Entry);
  Emit E{*F, C, Label, BodiesPerLevel};
  BasicBlock *Last = E.loops(Entry, Depth);
  C.emitRet(Last);
  F->recomputePreds();
  return F;
}

std::unique_ptr<Function> depflow::generateRepeatUntilChain(
    unsigned K, unsigned NumVars, std::uint64_t Seed) {
  auto F = std::make_unique<Function>("repeat");
  RNG Rand(Seed);
  CodeEmitter C(*F, Rand, NumVars, 40, 10);
  BasicBlock *Cur = F->makeBlock("entry");
  C.emitAssign(Cur);
  for (unsigned I = 0; I != K; ++I) {
    std::string N = std::to_string(I);
    BasicBlock *Body = F->makeBlock("body" + N);
    BasicBlock *After = F->makeBlock("after" + N);
    Cur->setJump(Body);
    C.emitAssign(Body);
    // Back edge Body→Body leaves a switch and enters a merge: critical.
    Body->setCondBr(Operand::var(C.randomVar()), Body, After);
    C.emitAssign(After);
    Cur = After;
  }
  C.emitRet(Cur);
  F->recomputePreds();
  return F;
}

std::unique_ptr<Function> depflow::generateLadder(unsigned K, unsigned NumVars,
                                                  std::uint64_t Seed) {
  assert(K >= 3 && "ladder needs at least three rungs");
  auto F = std::make_unique<Function>("ladder");
  RNG Rand(Seed);
  CodeEmitter C(*F, Rand, NumVars, 40, 10);
  std::vector<BasicBlock *> Rungs;
  for (unsigned I = 0; I != K; ++I)
    Rungs.push_back(F->makeBlock("r" + std::to_string(I)));
  for (unsigned I = 0; I != K; ++I) {
    C.emitAssign(Rungs[I]);
    if (I + 2 < K)
      Rungs[I]->setCondBr(Operand::var(C.randomVar()), Rungs[I + 1],
                          Rungs[I + 2]);
    else if (I + 1 < K)
      Rungs[I]->setJump(Rungs[I + 1]);
    else
      C.emitRet(Rungs[I]);
  }
  F->recomputePreds();
  return F;
}

std::vector<UEdge> depflow::randomStronglyConnectedEdges(RNG &Rand,
                                                         unsigned NumNodes,
                                                         unsigned ExtraEdges) {
  assert(NumNodes >= 2 && "need at least two nodes");
  std::vector<unsigned> Perm(NumNodes);
  for (unsigned I = 0; I != NumNodes; ++I)
    Perm[I] = I;
  for (unsigned I = NumNodes; I-- > 1;)
    std::swap(Perm[I], Perm[Rand.nextBelow(I + 1)]);

  std::vector<UEdge> Edges;
  for (unsigned I = 0; I != NumNodes; ++I)
    Edges.push_back({Perm[I], Perm[(I + 1) % NumNodes]});
  for (unsigned I = 0; I != ExtraEdges; ++I) {
    unsigned A = unsigned(Rand.nextBelow(NumNodes));
    unsigned B = unsigned(Rand.nextBelow(NumNodes));
    if (A != B)
      Edges.push_back({A, B});
  }
  return Edges;
}

//===----------------------------------------------------------------------===//
// Mixed-family functions and modules
//===----------------------------------------------------------------------===//

static const char *const MixedFamilyNames[] = {
    "structured",   "random-cfg",   "diamonds",
    "nested-loops", "repeat-until", "ladder"};

const char *depflow::mixedFamilyName(unsigned Family) {
  assert(Family < 6 && "family index out of range");
  return MixedFamilyNames[Family];
}

std::unique_ptr<Function> depflow::generateMixedProgram(RNG &Rand,
                                                        unsigned *FamilyOut) {
  unsigned Family = unsigned(Rand.nextBelow(6));
  if (FamilyOut)
    *FamilyOut = Family;
  std::uint64_t Seed = Rand.next();
  unsigned Vars = 2 + unsigned(Rand.nextBelow(7));
  switch (Family) {
  case 0: {
    GenOptions G;
    G.Seed = Seed;
    G.NumVars = Vars;
    G.TargetStmts = 8 + unsigned(Rand.nextBelow(40));
    G.MaxDepth = 2 + unsigned(Rand.nextBelow(4));
    G.LoopPct = unsigned(Rand.nextBelow(40));
    G.IfPct = 20 + unsigned(Rand.nextBelow(40));
    G.ReadPct = 5 + unsigned(Rand.nextBelow(25));
    G.EmitElse = Rand.chance(1, 2);
    return generateStructuredProgram(G);
  }
  case 1:
    return generateRandomCFGProgram(Seed, 4 + unsigned(Rand.nextBelow(10)),
                                    20 + unsigned(Rand.nextBelow(40)), Vars,
                                    1 + unsigned(Rand.nextBelow(3)));
  case 2:
    return generateDiamondChain(1 + unsigned(Rand.nextBelow(5)), Vars, Seed);
  case 3:
    return generateNestedLoops(1 + unsigned(Rand.nextBelow(3)),
                               1 + unsigned(Rand.nextBelow(2)), Vars, Seed);
  case 4:
    return generateRepeatUntilChain(1 + unsigned(Rand.nextBelow(4)), Vars,
                                    Seed);
  default:
    return generateLadder(3 + unsigned(Rand.nextBelow(6)), Vars, Seed);
  }
}

std::unique_ptr<Module> depflow::generateModule(unsigned NumFuncs,
                                                std::uint64_t Seed) {
  RNG Rand(Seed);
  auto M = std::make_unique<Module>("m" + std::to_string(Seed));
  for (unsigned I = 0; I != NumFuncs; ++I) {
    std::unique_ptr<Function> F = generateMixedProgram(Rand);
    F->setName("f" + std::to_string(I));
    Status S = M->addFunction(std::move(F));
    assert(S.ok() && "generated names are unique");
    (void)S;
  }
  return M;
}

std::unique_ptr<Module> depflow::generateCallModule(unsigned NumFuncs,
                                                    std::uint64_t Seed) {
  assert(NumFuncs > 0 && "a call module needs at least the entry");
  RNG Rand(Seed);
  auto M = std::make_unique<Module>("cm" + std::to_string(Seed));
  std::vector<Function *> Fns;
  for (unsigned I = 0; I != NumFuncs; ++I) {
    std::unique_ptr<Function> F = generateMixedProgram(Rand);
    F->setName("f" + std::to_string(I));
    // Callees take 0..2 parameters. Generated bodies define every variable
    // before use, so a promoted variable would be dead on arrival; instead
    // each parameter is a fresh variable mixed into an existing one at the
    // end of the entry block, where it flows into the rest of the body.
    if (I != 0 && F->numVars() != 0) {
      unsigned NumParams = unsigned(Rand.nextBelow(3));
      for (unsigned P = 0; P != NumParams; ++P) {
        VarId PV = F->makeVar("p" + std::to_string(P));
        F->addParam(PV);
        VarId W = VarId(Rand.nextBelow(F->numVars() - 1 - P));
        F->entry()->appendBinary(W, BinOp::Add, Operand::var(W),
                                 Operand::var(PV));
      }
    }
    Fns.push_back(F.get());
    Status S = M->addFunction(std::move(F));
    assert(S.ok() && "generated names are unique");
    (void)S;
  }
  // Call sites: fi only ever calls fj with j > i, so the call graph is a
  // DAG rooted at f0 — every run from f0 terminates whenever the bodies
  // do, which keeps the slice oracle's halting filter cheap.
  for (unsigned I = 0; I + 1 < NumFuncs; ++I) {
    Function *F = Fns[I];
    unsigned NumCalls = 1 + unsigned(Rand.nextBelow(3));
    for (unsigned C = 0; C != NumCalls; ++C) {
      Function *Callee =
          Fns[I + 1 + unsigned(Rand.nextBelow(NumFuncs - I - 1))];
      std::vector<Operand> Args;
      for (std::size_t A = 0; A != Callee->params().size(); ++A)
        Args.push_back(Rand.chance(1, 3)
                           ? Operand::imm(Rand.nextInRange(-4, 9))
                           : Operand::var(VarId(Rand.nextBelow(F->numVars()))));
      VarId Def = VarId(Rand.nextBelow(F->numVars()));
      BasicBlock *BB = F->block(unsigned(Rand.nextBelow(F->numBlocks())));
      BB->appendCall(Def, Callee->name(), Args);
    }
  }
  return M;
}
