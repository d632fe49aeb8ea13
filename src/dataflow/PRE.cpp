//===- dataflow/PRE.cpp - Partial redundancy elimination ------------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "dataflow/PRE.h"

#include "support/Statistic.h"
#include "support/Worklist.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <set>

using namespace depflow;

// Every solver below runs once per batch, over all candidates at once, so
// an "evaluation" or a "round" covers every candidate's bit. Bit flips are
// counted per candidate: AV and PP descend from top and PAV ascends from
// bottom, so each bit changes at most once and the total equals the sum of
// the candidates' solo runs.
DEPFLOW_STATISTIC(NumPREAvailEvals, "pre",
                  "Availability solver: block evaluations (word-parallel)");
DEPFLOW_STATISTIC(NumPREPavEvals, "pre",
                  "Partial-availability solver: block evaluations "
                  "(word-parallel)");
DEPFLOW_STATISTIC(NumPREBitsFlipped, "pre",
                  "AV/PAV/PP solver bits changed");
DEPFLOW_STATISTIC(NumPREPPRounds, "pre",
                  "Morel-Renvoise placement-possible rounds (word-parallel)");

namespace {

using Word = std::uint64_t;

bool testBit(const Word *Row, std::uint32_t C) {
  return (Row[C / 64] >> (C % 64)) & 1;
}
void setBit(Word *Row, std::uint32_t C) { Row[C / 64] |= Word(1) << (C % 64); }
void resetBit(Word *Row, std::uint32_t C) {
  Row[C / 64] &= ~(Word(1) << (C % 64));
}

/// Calls \p Visit with every candidate whose bit is set in \p Row, in
/// candidate order.
template <typename Fn> void forEachBit(const Word *Row, unsigned W, Fn Visit) {
  for (unsigned I = 0; I != W; ++I)
    for (Word Bits = Row[I]; Bits; Bits &= Bits - 1)
      Visit(std::uint32_t(I * 64 + unsigned(std::countr_zero(Bits))));
}

/// The placement problem of every candidate at once. Candidate k is bit
/// k % 64 of word k / 64 of a W-word row; each property (Morel-Renvoise's
/// local properties and the AV, PAV, PP and ANT solutions) has one row per
/// block, and the ANT input has one per CFG edge. Bit-vector problems are
/// separable, so each bit reaches exactly the fixed point of its
/// candidate's solo solve. Padding bits past the last candidate stay clear in every row:
/// the tops are masked and the solvers only AND and OR.
class PlacementBatch {
  enum Prop : unsigned {
    Transp, // No operand of e assigned in the block.
    AntLoc, // e computed before any operand assignment.
    Comp,   // e computed and still valid at block exit.
    AntIn,
    AvIn,
    AvOut,
    PavIn,
    PavOut,
    PpIn,
    PpOut,
    NumProps
  };

  Function &F;
  const CFGEdges &E;
  const CandidateSet &Cands;
  /// ANT per CFG edge, one row each.
  const Word *Ant;
  const unsigned K, W, NB;
  /// Property rows grouped by block (a block's properties are adjacent,
  /// as the solvers read them), then the all-candidates row and a scratch
  /// row.
  std::vector<Word> Store;
  Word *Top, *Tmp;

  Word *row(Prop P, unsigned B) {
    return Store.data() + (std::size_t(B) * NumProps + P) * W;
  }
  const Word *antRow(unsigned C) const { return Ant + std::size_t(C) * W; }
  void fill(Word *Row, const Word *From) { std::copy(From, From + W, Row); }
  void clear(Word *Row) { std::fill(Row, Row + W, Word(0)); }

public:
  PlacementBatch(Function &F, const CFGEdges &E, const CandidateSet &Cands,
                 const Word *Ant)
      : F(F), E(E), Cands(Cands), Ant(Ant), K(Cands.size()),
        W(Cands.words()), NB(F.numBlocks()),
        Store((std::size_t(NumProps) * NB + 2) * W, 0) {
    Top = Store.data() + std::size_t(NumProps) * NB * W;
    Tmp = Top + W;
    std::fill(Top, Top + W, ~Word(0));
    if (K % 64)
      Top[W - 1] = (Word(1) << (K % 64)) - 1;
    scanLocalProps();
    deriveAntIn();
  }

  Status busyCodeMotion(std::vector<PREDecisions> &Out);
  Status morelRenvoise(std::vector<PREDecisions> &Out);

private:
  void deriveAntIn();

  /// One scan of the instructions fills TRANSP, ANTLOC and COMP.
  void scanLocalProps() {
    Word *Killed = Tmp;
    std::size_t Idx = 0;
    for (const auto &BB : F.blocks()) {
      unsigned B = BB->id();
      Word *T = row(Transp, B), *A = row(AntLoc, B), *C = row(Comp, B);
      fill(T, Top);
      clear(Killed);
      for (const auto &I : BB->instructions()) {
        std::uint32_t Cand = Cands.computedBy(*I, unsigned(Idx++));
        if (Cand != CandidateSet::None) {
          if (!testBit(Killed, Cand))
            setBit(A, Cand);
          setBit(C, Cand);
        }
        if (const auto *D = dyn_cast<DefInst>(I.get()))
          for (std::uint32_t KC : Cands.readers(D->def())) {
            setBit(Killed, KC);
            resetBit(C, KC);
            resetBit(T, KC);
          }
      }
    }
  }

  /// Forward availability over a block worklist: AV (\p Must: AND over
  /// predecessors, greatest fixed point, nothing available on entry) or
  /// PAV (OR over predecessors, least fixed point).
  void solveAvailability(bool Must, Prop InP, Prop OutP, Statistic &Evals) {
    // Every block is evaluated at least once, which writes its In row.
    for (unsigned B = 0; B != NB; ++B) {
      if (Must)
        fill(row(OutP, B), Top);
      else
        clear(row(OutP, B));
    }
    Worklist WL(NB);
    for (unsigned B = 0; B != NB; ++B)
      WL.push(B);
    while (!WL.empty()) {
      BasicBlock *BB = F.block(WL.pop());
      ++Evals;
      unsigned B = BB->id();
      Word *In = row(InP, B), *Out = row(OutP, B);
      const Word *T = row(Transp, B), *C = row(Comp, B);
      const bool NoneIn = Must && BB == F.entry();
      std::uint64_t Flips = 0;
      for (unsigned I = 0; I != W; ++I) {
        Word Meet = Must && !NoneIn ? Top[I] : 0;
        if (!NoneIn)
          for (BasicBlock *Pred : BB->predecessors()) {
            Word PredOut = row(OutP, Pred->id())[I];
            Meet = Must ? Meet & PredOut : Meet | PredOut;
          }
        In[I] = Meet;
        Word New = C[I] | (Meet & T[I]);
        Flips += unsigned(std::popcount(New ^ Out[I]));
        Out[I] = New;
      }
      if (Flips) {
        NumPREBitsFlipped += Flips;
        for (BasicBlock *S : BB->successors())
          WL.push(S->id());
      }
    }
  }

  /// Placement-possible: greatest fixed point, round-robin over the
  /// blocks. Each bit follows exactly its solo trajectory, so the batch
  /// takes as many rounds as its slowest candidate.
  Status solvePlacementPossible() {
    for (unsigned B = 0; B != NB; ++B) {
      fill(row(PpIn, B), Top);
      fill(row(PpOut, B), Top);
    }
    // 2·NB monotonically falling bits per candidate: the fixed point needs
    // at most 2·NB + 2 rounds; exceeding the slack bound means a broken
    // transfer.
    const std::uint64_t MaxRounds = 64 + 4 * (std::uint64_t(NB) + 1);
    for (std::uint64_t Rounds = 1;; ++Rounds) {
      if (Rounds > MaxRounds)
        return Status::error("pre: placement-possible work bound exceeded");
      ++NumPREPPRounds;
      std::uint64_t Flips = 0;
      for (const auto &BB : F.blocks()) {
        unsigned B = BB->id();
        const Word *Ant = row(AntIn, B), *Pav = row(PavIn, B);
        const Word *A = row(AntLoc, B), *T = row(Transp, B);
        Word *PIn = row(PpIn, B), *POut = row(PpOut, B);
        const bool IsEntry = BB.get() == F.entry();
        const bool IsExit = BB->successors().empty();
        // Both values of the block are computed before either is stored,
        // from the other rows as this round has left them.
        for (unsigned I = 0; I != W; ++I) {
          Word In = 0;
          if (!IsEntry) {
            In = Ant[I] & Pav[I] & (A[I] | (T[I] & POut[I]));
            for (BasicBlock *Pred : BB->predecessors())
              In &= row(PpOut, Pred->id())[I] | row(AvOut, Pred->id())[I];
          }
          Word Out = IsExit ? 0 : Top[I];
          for (BasicBlock *S : BB->successors())
            Out &= row(PpIn, S->id())[I];
          Flips += unsigned(std::popcount(In ^ PIn[I]) +
                            std::popcount(Out ^ POut[I]));
          PIn[I] = In;
          POut[I] = Out;
        }
      }
      if (!Flips)
        return Status::success();
      NumPREBitsFlipped += Flips;
    }
  }

  /// Walks every block marking deletable computations: a computation is
  /// covered if the value is available at its position (from block entry
  /// coverage, which \p CoveredAtIn writes for a block id, or from an
  /// earlier in-block computation).
  template <typename CoverFn>
  void collectDeletes(CoverFn CoveredAtIn, std::vector<PREDecisions> &Out) {
    Word *Covered = Tmp;
    std::size_t Idx = 0;
    for (const auto &BB : F.blocks()) {
      CoveredAtIn(BB->id(), Covered);
      for (const auto &I : BB->instructions()) {
        std::uint32_t Cand = Cands.computedBy(*I, unsigned(Idx++));
        if (Cand != CandidateSet::None) {
          if (testBit(Covered, Cand))
            Out[Cand].Deletes.push_back(I.get());
          setBit(Covered, Cand);
        }
        if (const auto *D = dyn_cast<DefInst>(I.get()))
          for (std::uint32_t KC : Cands.readers(D->def()))
            resetBit(Covered, KC);
      }
    }
  }
};

/// Derives ANT at each block's entry from the per-CFG-edge rows (any
/// in-edge; a block without in-edges needs one backward transfer from its
/// out-edges).
void PlacementBatch::deriveAntIn() {
  for (const auto &BB : F.blocks()) {
    unsigned B = BB->id();
    Word *In = row(AntIn, B);
    if (!E.inEdges(BB.get()).empty()) {
      fill(In, antRow(E.inEdges(BB.get())[0]));
      continue;
    }
    // ANTIN = ANTLOC ∨ (TRANSP ∧ ANTOUT).
    Word *AntOut = Tmp;
    if (E.outEdges(BB.get()).empty())
      clear(AntOut);
    else
      fill(AntOut, Top);
    for (unsigned EId : E.outEdges(BB.get()))
      for (unsigned I = 0; I != W; ++I)
        AntOut[I] &= antRow(EId)[I];
    const Word *A = row(AntLoc, B), *T = row(Transp, B);
    for (unsigned I = 0; I != W; ++I)
      In[I] = A[I] | (T[I] & AntOut[I]);
  }
}

Status PlacementBatch::busyCodeMotion(std::vector<PREDecisions> &Out) {
  solveAvailability(/*Must=*/true, AvIn, AvOut, NumPREAvailEvals);

  // Earliest insertions: the frontier edges where ANT first becomes true
  // and the value is not already (or about to be) covered upstream.
  Word *Ins = Tmp;
  for (unsigned C = 0; C != E.size(); ++C) {
    const CFGEdge &Edge = E.edge(C);
    unsigned U = Edge.From->id();
    const Word *Ant = antRow(C), *Av = row(AvOut, U);
    const Word *T = row(Transp, U), *In = row(AntIn, U);
    Word Any = 0;
    for (unsigned I = 0; I != W; ++I) {
      // Covered further up when TRANSP ∧ ANTIN at the source.
      Ins[I] = Ant[I] & ~Av[I] & ~(T[I] & In[I]);
      Any |= Ins[I];
    }
    if (!Any)
      continue;
    // Place on the edge: critical edges must have been split.
    PREDecisions::InsertPoint Point;
    if (Edge.From->numSuccessors() == 1)
      Point = {Edge.From, /*AtEnd=*/true};
    else if (Edge.To->numPredecessors() == 1)
      Point = {Edge.To, /*AtEnd=*/false};
    else
      return Status::error("pre: insertion lands on a critical edge; run "
                           "splitCriticalEdges first");
    forEachBit(Ins, W, [&](std::uint32_t Cand) {
      Out[Cand].Inserts.push_back(Point);
    });
  }
  // The function entry is the frontier when e is anticipatable on entry.
  forEachBit(row(AntIn, F.entry()->id()), W, [&](std::uint32_t Cand) {
    Out[Cand].Inserts.push_back({F.entry(), /*AtEnd=*/false});
  });

  // Delete every computation whose value is covered: block entry coverage
  // is ANTIN ∨ AVIN (anticipatable entries are covered by the inserted
  // frontier above them).
  collectDeletes(
      [&](unsigned B, Word *Covered) {
        const Word *Ant = row(AntIn, B), *Av = row(AvIn, B);
        for (unsigned I = 0; I != W; ++I)
          Covered[I] = Ant[I] | Av[I];
      },
      Out);
  return Status::success();
}

Status PlacementBatch::morelRenvoise(std::vector<PREDecisions> &Out) {
  solveAvailability(/*Must=*/true, AvIn, AvOut, NumPREAvailEvals);
  solveAvailability(/*Must=*/false, PavIn, PavOut, NumPREPavEvals);
  if (Status S = solvePlacementPossible(); !S.ok())
    return S;

  Word *Ins = Tmp;
  for (const auto &BB : F.blocks()) {
    unsigned B = BB->id();
    const Word *PIn = row(PpIn, B), *POut = row(PpOut, B);
    const Word *Av = row(AvOut, B), *T = row(Transp, B);
    for (unsigned I = 0; I != W; ++I)
      Ins[I] = POut[I] & ~Av[I] & (~PIn[I] | ~T[I]);
    forEachBit(Ins, W, [&](std::uint32_t Cand) {
      Out[Cand].Inserts.push_back({BB.get(), /*AtEnd=*/true});
    });
  }
  // A block's entry is covered when e is locally anticipatable there and
  // placement-possible or available on entry.
  collectDeletes(
      [&](unsigned B, Word *Covered) {
        const Word *A = row(AntLoc, B), *PIn = row(PpIn, B);
        const Word *Av = row(AvIn, B);
        for (unsigned I = 0; I != W; ++I)
          Covered[I] = A[I] & (PIn[I] | Av[I]);
      },
      Out);
  return Status::success();
}

bool computes(const Instruction &I, const Expression &Expr) {
  std::optional<Expression> E = expressionOf(I);
  return E && *E == Expr;
}

} // namespace

Status depflow::runPRE(Function &F, const CFGEdges &E,
                       const CandidateSet &Cands,
                       std::span<const Word> AntRows, PREStrategy Strategy,
                       std::vector<PREDecisions> &Out) {
  Out.assign(Cands.size(), PREDecisions());
  if (AntRows.size() != std::size_t(E.size()) * Cands.words())
    return Status::error("pre: ANT rows do not fit the edges and candidates");
  if (!Cands.size())
    return Status::success();
  F.recomputePreds();
  PlacementBatch Batch(F, E, Cands, AntRows.data());
  return Strategy == PREStrategy::Busy ? Batch.busyCodeMotion(Out)
                                       : Batch.morelRenvoise(Out);
}

Status depflow::runPRE(Function &F, const CFGEdges &E, const Expression &Expr,
                       const std::vector<bool> &AntEdges,
                       PREStrategy Strategy, PREDecisions &Out) {
  if (AntEdges.size() != E.size())
    return Status::error("pre: ANT does not fit the edges");
  const CandidateSet One(F, {&Expr, 1});
  std::vector<Word> Rows(AntEdges.begin(), AntEdges.end());
  std::vector<PREDecisions> Decisions;
  Status S = runPRE(F, E, One, Rows, Strategy, Decisions);
  Out = std::move(Decisions.front());
  return S;
}

unsigned depflow::applyPRE(Function &F, const Expression &Expr,
                           const PREDecisions &Decisions) {
  if (Decisions.Deletes.empty() && Decisions.Inserts.empty())
    return 0;
  VarId Temp = F.makeFreshVar("pre.t");
  for (const auto &Point : Decisions.Inserts) {
    auto NewComp =
        std::make_unique<BinaryInst>(Temp, Expr.Op, Expr.Lhs, Expr.Rhs);
    if (Point.AtEnd)
      Point.Block->insert(std::move(NewComp));
    else
      Point.Block->insertAt(0, std::move(NewComp));
  }

  // Surviving computations must also save the value into the temporary:
  // a deleted computation downstream may be covered by them rather than by
  // an insertion (e.g. availability out of one diamond arm). `u = e`
  // becomes `t = e; u = t` — still a single evaluation.
  std::set<Instruction *> Deleted(Decisions.Deletes.begin(),
                                  Decisions.Deletes.end());
  for (const auto &BB : F.blocks()) {
    for (unsigned Idx = 0; Idx != BB->size(); ++Idx) {
      Instruction *I = BB->instructions()[Idx].get();
      if (!computes(*I, Expr) || Deleted.count(I))
        continue;
      auto *B = cast<BinaryInst>(I);
      if (B->def() == Temp)
        continue; // One of our own insertions.
      VarId OrigDef = B->def();
      BB->replaceInstruction(
          Idx, std::make_unique<BinaryInst>(Temp, Expr.Op, Expr.Lhs,
                                            Expr.Rhs));
      BB->insertAt(Idx + 1,
                   std::make_unique<CopyInst>(OrigDef, Operand::var(Temp)));
      ++Idx; // Skip the copy we just inserted.
    }
  }

  unsigned Replaced = 0;
  for (Instruction *Del : Decisions.Deletes) {
    auto *B = cast<BinaryInst>(Del);
    BasicBlock *BB = B->parent();
    int Idx = BB->indexOf(B);
    assert(Idx >= 0 && "deleted instruction not in its block");
    BB->replaceInstruction(unsigned(Idx),
                           std::make_unique<CopyInst>(B->def(),
                                                      Operand::var(Temp)));
    ++Replaced;
  }
  return Replaced;
}

std::vector<Expression> depflow::collectExpressions(const Function &F) {
  std::set<Expression> Seen;
  std::vector<Expression> Out;
  for (const auto &BB : F.blocks()) {
    for (const auto &I : BB->instructions()) {
      std::optional<Expression> E = expressionOf(*I);
      if (!E || E->variables().empty())
        continue;
      if (Seen.insert(*E).second)
        Out.push_back(*E);
    }
  }
  return Out;
}
