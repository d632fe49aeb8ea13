//===- dataflow/SparseEngine.h - Parameterized sparse dataflow --*- C++ -*-===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One worklist engine for every forward dataflow client, parameterized by
/// the lattice and transfer function — the generalization Tavares,
/// Boissinot, Pereira & Rastello (arXiv 1403.5952) describe for sparse
/// analyses, instantiated here over the paper's dependence flow graph.
/// Sections 4–5 of Johnson & Pingali hand-build one sparse evaluation per
/// client (constant propagation, anticipatability, PRE); this header
/// factors the shared machinery so a client supplies only its lattice
/// operations and per-definition transfer:
///
///  * `SparseEngine<Client>`        — forward solve over DFG edges: one
///    single-variable token per dependence edge, O(E·V) total work. The
///    Figure 4b evaluation with the constant lattice swapped out.
///  * `DenseEngine<Client>`         — the Figure 4a CFG evaluation: V-wide
///    vectors on CFG edges with executability tracking. Kept as the dense
///    fallback every sparse client is differentially checked against
///    (depflow-fuzz compares the two solutions edge for edge).
///  * `SparseBackwardEngine<Client>`— backward solve over one variable's
///    slice of DFG edges (the Figure 5b anticipatability shape).
///
/// Forward client contract (all calls are const; the engine owns every
/// mutable solver structure):
///
/// \code
///   using Value;                                  // lattice element
///   static Value bottom();                        // "never examined"
///   static bool equal(const Value &, const Value &);
///   Value meet(const Value &, const Value &) const;   // confluence
///   Value fromImmediate(std::int64_t) const;
///   Value entryValue(VarId V, bool IsControl) const;  // value on entry
///   bool mayBeTrue(const Value &) const;          // branch may be taken
///   bool mayBeFalse(const Value &) const;         // branch may fall through
///   template <typename GetFn>   // GetFn: (const Operand &), given a
///                               // reference into the def's operands()
///   Value transfer(const DefInst &, GetFn, bool Executable) const;
///   // Optional precision hooks; default to no refinement:
///   void refineSwitch(const BasicBlock *, const CondBrInst *,
///                     const Value &Pred, const Value &In, VarId,
///                     Value &OutTrue, Value &OutFalse) const;
///   void refineBranchVector(const BasicBlock *, const CondBrInst *,
///                           const Value &Cond, Value *Vec,
///                           bool TrueSide) const;  // in-place, V slots
/// \endcode
///
/// Lattice values are tokens: trivially-copyable scalars or small structs.
/// The engines keep them in flat arrays carved from a per-solve bump
/// arena, so a `Value` with a destructor or heap payload will not compile.
///
/// Failure convention: engines return `Status` instead of asserting. A
/// client whose transfer is not monotone over a finite-height lattice
/// cannot hang the solver — each engine carries a generous work bound and
/// reports its violation as a diagnostic.
///
/// Counters are injected, not owned: each client passes pointers to its
/// own `DEPFLOW_STATISTIC` objects, so the ported clients keep their
/// pre-engine counter groups byte-identical and new clients get their own
/// groups for the perf gate. Null pointers disable a counter.
///
//===----------------------------------------------------------------------===//

#ifndef DEPFLOW_DATAFLOW_SPARSEENGINE_H
#define DEPFLOW_DATAFLOW_SPARSEENGINE_H

#include "core/DepFlowGraph.h"
#include "ir/CFGEdges.h"
#include "ir/Function.h"
#include "support/Arena.h"
#include "support/Error.h"
#include "support/Statistic.h"
#include "support/Worklist.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace depflow {

/// How a forward client evaluates: sparse tokens on the DFG (the paper's
/// preferred representation) or dense vectors on the CFG (the differential
/// fallback).
enum class EvalMode : std::uint8_t { SparseDFG, DenseCFG };

/// Counter hooks for SparseEngine. All optional.
struct SparseEngineCounters {
  Statistic *Pushes = nullptr;        // node worklist pushes
  Statistic *Pops = nullptr;          // node worklist pops
  Statistic *Tokens = nullptr;        // tokens written to DFG edges
  Statistic *Lowerings = nullptr;     // token writes that changed the edge
  HistStatistic *TokensPerEdge = nullptr; // per-edge token distribution
};

/// Counter hooks for DenseEngine. All optional.
struct DenseEngineCounters {
  Statistic *Pushes = nullptr;    // block worklist pushes
  Statistic *Pops = nullptr;      // block worklist pops
  Statistic *Slots = nullptr;     // vector slots copied across CFG edges
  Statistic *Lowerings = nullptr; // per-variable edge values changed
};

/// Counter hooks for SparseBackwardEngine. All optional.
struct BackwardEngineCounters {
  Statistic *Evals = nullptr; // edge evaluations (worklist pops)
  Statistic *Flips = nullptr; // facts changed (see `distance`)
};

namespace detail {
inline void bump(Statistic *S) {
  if (S)
    ++*S;
}
inline void bump(Statistic *S, std::uint64_t N) {
  if (S)
    *S += N;
}
} // namespace detail

/// What every forward solve produces: one lattice value per instruction
/// operand (non-var operands get their folded immediate; operands of dead
/// instructions get ⊥) plus per-block executability. `ConstPropResult` and
/// the other client results derive from instantiations of this.
///
/// Storage is struct-of-arrays over the canonical instruction order (block
/// order, then position in the block): row R holds the values of
/// instruction R at `Values[Offsets[R] .. Offsets[R+1])`. A pointer-keyed
/// query takes its row from the block's first row plus the instruction's
/// position in the block (`canonicalRow`).
template <typename ValueT> struct DataflowResult {
  using Value = ValueT;

  /// Per block id: can the block execute?
  std::vector<bool> ExecutableBlock;

  /// Lays out one row per instruction of \p F in canonical order, every
  /// value ⊥, in one walk. Engines fill rows in the same walk via `row()`.
  void allocate(const Function &F) {
    const unsigned NumInstrs = F.numInstructions();
    Instrs.clear();
    Instrs.reserve(NumInstrs);
    Offsets.clear();
    Offsets.reserve(NumInstrs + 1);
    Offsets.push_back(0);
    BlockFirst.resize(F.numBlocks());
    for (const auto &BB : F.blocks()) {
      BlockFirst[BB->id()] = std::uint32_t(Instrs.size());
      for (const auto &I : BB->instructions()) {
        Instrs.push_back(I.get());
        Offsets.push_back(Offsets.back() + I->numOperands());
      }
    }
    Values.assign(Offsets.back(), ValueT::bottom());
  }

  /// Number of instruction rows.
  std::uint32_t size() const { return std::uint32_t(Instrs.size()); }
  /// Operand-value slots of row \p R (canonical instruction index).
  ValueT *row(std::uint32_t R) { return Values.data() + Offsets[R]; }
  const ValueT *row(std::uint32_t R) const {
    return Values.data() + Offsets[R];
  }
  unsigned rowWidth(std::uint32_t R) const {
    return Offsets[R + 1] - Offsets[R];
  }
  /// Row of the terminator of \p BB.
  std::uint32_t terminatorRow(const BasicBlock *BB) const {
    return BlockFirst[BB->id()] + std::uint32_t(BB->size()) - 1;
  }

  /// Value of operand \p OpIdx of \p I, or ⊥ when \p I has no such
  /// operand or is not an instruction of the solved function.
  ValueT useValue(const Instruction *I, unsigned OpIdx) const {
    const int R = canonicalRow(I, BlockFirst, Instrs);
    if (R < 0 || OpIdx >= rowWidth(std::uint32_t(R)))
      return ValueT::bottom();
    return row(std::uint32_t(R))[OpIdx];
  }

  /// Calls \p Fn(instruction, values, numValues) for every row in
  /// canonical order.
  template <typename Fn> void forEachInstruction(Fn &&F) const {
    for (std::uint32_t R = 0, N = size(); R != N; ++R)
      F(Instrs[R], row(R), rowWidth(R));
  }

private:
  std::vector<const Instruction *> Instrs; // [row] -> instruction
  std::vector<std::uint32_t> BlockFirst;   // [block id] -> first row
  std::vector<std::uint32_t> Offsets;      // [row] -> first value slot
  std::vector<ValueT> Values;              // flat operand values
};

//===----------------------------------------------------------------------===//
// SparseEngine: forward solve over DFG edges (Figure 4b, generalized)
//===----------------------------------------------------------------------===//

template <typename Client> class SparseEngine {
public:
  using Value = typename Client::Value;
  static_assert(std::is_trivially_copyable_v<Value>,
                "lattice values live in bump-arena arrays; a Value with a "
                "destructor or heap payload cannot be a token");

  SparseEngine(Function &F, const DepFlowGraph &G, const Client &C,
               const SparseEngineCounters &Ctr = {})
      : F(F), G(G), C(C), Ctr(Ctr),
        Pool(arenaBytes(G.numNodes(), G.numEdges(), Ctr.TokensPerEdge)),
        EdgeVal(Pool.allocateFilled<Value>(G.numEdges(), Client::bottom())),
        TokensPerEdge(Ctr.TokensPerEdge
                          ? Pool.allocateFilled<std::uint32_t>(G.numEdges(), 0)
                          : nullptr),
        WL(Pool, G.numNodes()) {}

  /// Runs the token worklist to its fixed point and extracts per-use
  /// values. Fails (without asserting) if the client exceeds the engine's
  /// work bound — the symptom of a non-monotone transfer or an
  /// infinite-height lattice.
  Status run(DataflowResult<Value> &Out) {
    Status S = solve();
    if (!S.ok())
      return S;
    Out = extract();
    return Status::success();
  }

  Status solve() {
    // A loose bound on legitimate work: every edge can change at most
    // Height times, and each change re-evaluates a bounded neighborhood.
    // Only a misbehaving client approaches it.
    const std::uint64_t MaxPops =
        64 + 1024 * (std::uint64_t(G.numEdges()) + G.numNodes() +
                     F.numVars() + 1);
    std::uint64_t Pops = 0;
    for (unsigned N = 0; N != G.numNodes(); ++N)
      if (G.node(N).Kind == DepFlowGraph::NodeKind::Entry) {
        WL.push(N);
        detail::bump(Ctr.Pushes);
      }
    while (!WL.empty()) {
      if (++Pops > MaxPops)
        return Status::error("sparse engine: work bound exceeded "
                             "(non-monotone transfer function?)");
      detail::bump(Ctr.Pops);
      evalNode(WL.pop());
    }
    if (TokensPerEdge)
      for (unsigned EId = 0, NE = G.numEdges(); EId != NE; ++EId)
        Ctr.TokensPerEdge->sample(TokensPerEdge[EId]);
    return Status::success();
  }

  /// Value arriving at a Use node (single in-edge by construction).
  Value useValue(int UseNode) const {
    if (UseNode < 0)
      return Client::bottom();
    const auto &In = G.inEdges(unsigned(UseNode));
    return In.empty() ? Client::bottom() : EdgeVal[In[0]];
  }

  /// Lattice value of operand \p Idx of \p I, the instruction with
  /// canonical index \p Row. Dead instructions report ⊥ for every operand,
  /// even when region bypassing routed a (termination-optimistic) value
  /// past the switch that guards them — this keeps the reported results
  /// identical to the dense algorithm's.
  Value operandValue(unsigned Row, const Instruction *I, unsigned Idx,
                     bool Executable) const {
    if (!Executable)
      return Client::bottom();
    const Operand &Op = I->operand(Idx);
    if (Op.isImm())
      return C.fromImmediate(Op.imm());
    return useValue(G.useNodeAt(Row, Idx));
  }

  /// Executability of \p I, the instruction with canonical index \p Row:
  /// the control use if it has one, otherwise the liveness of its first
  /// variable operand's dependence.
  bool executable(unsigned Row, const Instruction *I) const {
    int Ctrl = G.useNodeAt(Row, I->numOperands());
    if (Ctrl >= 0)
      return !isBottom(useValue(Ctrl));
    for (unsigned Idx = 0; Idx != I->numOperands(); ++Idx)
      if (I->operand(Idx).isVar())
        return !isBottom(useValue(G.useNodeAt(Row, Idx)));
    return true; // No operands at all: treated as executable.
  }

  DataflowResult<Value> extract() const {
    DataflowResult<Value> R;
    // Block executability, projected from the DFG's branch predicate
    // values: entry runs; a branch's sides run when its predicate (a DFG
    // use value) may take them. Blocks containing only a jump (e.g. the
    // empty merge blocks of separateComputation) carry no use of their
    // own, so this projection is the uniform way to classify them.
    R.ExecutableBlock.assign(F.numBlocks(), false);
    std::vector<BasicBlock *> Stack{F.entry()};
    R.ExecutableBlock[F.entry()->id()] = true;
    while (!Stack.empty()) {
      BasicBlock *BB = Stack.back();
      Stack.pop_back();
      Instruction *Term = BB->terminator();
      auto Push = [&](BasicBlock *S) {
        if (!R.ExecutableBlock[S->id()]) {
          R.ExecutableBlock[S->id()] = true;
          Stack.push_back(S);
        }
      };
      if (auto *Br = dyn_cast<CondBrInst>(Term)) {
        Value Pred = Br->cond().isImm() ? C.fromImmediate(Br->cond().imm())
                                        : predicateValue(BB);
        if (C.mayBeTrue(Pred))
          Push(Br->trueTarget());
        if (C.mayBeFalse(Pred))
          Push(Br->falseTarget());
      } else if (auto *J = dyn_cast<JumpInst>(Term)) {
        Push(J->target());
      }
    }

    R.allocate(F);
    std::uint32_t Row = 0;
    for (const auto &BB : F.blocks()) {
      bool Exec = R.ExecutableBlock[BB->id()];
      for (const auto &IPtr : BB->instructions()) {
        const Instruction *I = IPtr.get();
        Value *Vals = R.row(Row);
        for (unsigned Idx = 0; Idx != I->numOperands(); ++Idx)
          Vals[Idx] = operandValue(Row, I, Idx, Exec);
        ++Row;
      }
    }
    return R;
  }

private:
  Function &F;
  const DepFlowGraph &G;
  const Client &C;
  SparseEngineCounters Ctr;
  /// Every per-solve structure — edge values, token tallies, the worklist
  /// ring and presence bits — comes from this exactly-sized arena, so one
  /// solve costs one allocation instead of one per table.
  BumpArena Pool;
  Value *EdgeVal;
  /// Tokens written per edge; allocated only when a histogram is attached.
  std::uint32_t *TokensPerEdge;
  Worklist WL;

  static std::size_t arenaBytes(std::size_t Nodes, std::size_t Edges,
                                bool TallyTokens) {
    return Edges * (sizeof(Value) + (TallyTokens ? 4 : 0)) + Nodes * 4 +
           8 * ((Nodes + 63) / 64) + 128;
  }

  /// Value of the branch predicate of \p BB's terminator, read by its
  /// canonical row.
  Value predicateValue(const BasicBlock *BB) const {
    return useValue(G.useNodeAt(G.terminatorIndex(BB), 0));
  }

  bool isBottom(const Value &V) const {
    return Client::equal(V, Client::bottom());
  }

  void writeEdge(unsigned EId, const Value &V) {
    detail::bump(Ctr.Tokens);
    if (TokensPerEdge)
      ++TokensPerEdge[EId];
    if (Client::equal(EdgeVal[EId], V))
      return;
    detail::bump(Ctr.Lowerings);
    EdgeVal[EId] = V;
    WL.push(G.edge(EId).Dst);
    detail::bump(Ctr.Pushes);
  }

  void writePort(unsigned Node, unsigned Port, const Value &V) {
    for (unsigned EId : G.outEdges(Node))
      if (G.edge(EId).SrcPort == Port)
        writeEdge(EId, V);
  }

  void schedule(unsigned Node) {
    WL.push(Node);
    detail::bump(Ctr.Pushes);
  }

  void evalNode(unsigned N) {
    const DepFlowGraph::Node &Node = G.node(N);
    switch (Node.Kind) {
    case DepFlowGraph::NodeKind::Entry: {
      writePort(N, 0, C.entryValue(Node.Var, G.isControl(Node.Var)));
      break;
    }
    case DepFlowGraph::NodeKind::Use: {
      // A use's value feeds its instruction: re-evaluate the def it takes
      // part in, or the switches keyed on it when it is a branch predicate.
      const Instruction *I = Node.Inst;
      if (isa<DefInst>(I)) {
        if (int D = G.defNodeAt(unsigned(G.instrIndexOf(N))); D >= 0)
          schedule(unsigned(D));
      } else if (isa<CondBrInst>(I)) {
        for (unsigned S : G.switchesAt(Node.Block))
          schedule(S);
      }
      break;
    }
    case DepFlowGraph::NodeKind::Def: {
      const auto *D = cast<DefInst>(Node.Inst);
      const unsigned Row = unsigned(G.instrIndexOf(N));
      // The client's transfer resolves immediates itself; the callback only
      // sees variable operands and maps them back, by position, to their
      // use nodes.
      Value Out = C.transfer(
          *D,
          [&](const Operand &Op) {
            const auto Idx = unsigned(&Op - D->operands().data());
            assert(Idx < D->numOperands() && "operand not on its instruction");
            return useValue(G.useNodeAt(Row, Idx));
          },
          executable(Row, D));
      writePort(N, 0, Out);
      break;
    }
    case DepFlowGraph::NodeKind::Switch: {
      const auto *Br = cast<CondBrInst>(Node.Block->terminator());
      Value In = useValue(int(N)); // Switch input: single in-edge.
      Value Pred;
      if (Br->cond().isImm())
        Pred = isBottom(In) ? Client::bottom()
                            : C.fromImmediate(Br->cond().imm());
      else
        Pred = predicateValue(Node.Block);
      Value OutTrue = C.mayBeTrue(Pred) ? In : Client::bottom();
      Value OutFalse = C.mayBeFalse(Pred) ? In : Client::bottom();
      C.refineSwitch(Node.Block, Br, Pred, In, Node.Var, OutTrue, OutFalse);
      writePort(N, 0, OutTrue);
      writePort(N, 1, OutFalse);
      break;
    }
    case DepFlowGraph::NodeKind::Merge: {
      Value Out = Client::bottom();
      for (unsigned EId : G.inEdges(N))
        Out = C.meet(Out, EdgeVal[EId]);
      writePort(N, 0, Out);
      break;
    }
    }
  }
};

//===----------------------------------------------------------------------===//
// DenseEngine: forward solve with V-wide vectors on CFG edges (Figure 4a)
//===----------------------------------------------------------------------===//

template <typename Client> class DenseEngine {
public:
  using Value = typename Client::Value;
  static_assert(std::is_trivially_copyable_v<Value>,
                "lattice values live in bump-arena arrays; a Value with a "
                "destructor or heap payload cannot be a token");

  DenseEngine(Function &F, const Client &C,
              const DenseEngineCounters &Ctr = {})
      : F(F), C(C), Ctr(Ctr) {}

  Status run(DataflowResult<Value> &Out) {
    F.recomputePreds();
    CFGEdges E(F);
    const unsigned NV = F.numVars();
    const unsigned NE = E.size();

    // One per-solve arena holds the E×V edge matrix and the three V-wide
    // scratch vectors (entry, block-in, branch-refined) plus the block
    // worklist — the dense fallback's token queues, flattened.
    BumpArena Pool((std::size_t(NE) + 3) * NV * sizeof(Value) +
                   F.numBlocks() * 4 + 8 * ((F.numBlocks() + 63) / 64) + 128);
    Value *EdgeVec =
        Pool.allocateFilled<Value>(std::size_t(NE) * NV, Client::bottom());
    Value *EntryVec = Pool.allocateArray<Value>(NV);
    Value *Vec = Pool.allocateArray<Value>(NV);   // in-vector of the block
    Value *BrVec = Pool.allocateArray<Value>(NV); // branch-refined copy
    std::vector<bool> EdgeExec(NE, false);
    std::vector<bool> BlockExec(F.numBlocks(), false);

    for (unsigned V = 0; V != NV; ++V)
      EntryVec[V] = C.entryValue(V, /*IsControl=*/false);

    auto InVector = [&](const BasicBlock *BB, Value *Dst) {
      if (BB == F.entry()) {
        std::copy(EntryVec, EntryVec + NV, Dst);
        return;
      }
      std::fill(Dst, Dst + NV, Client::bottom());
      for (unsigned EId : E.inEdges(BB))
        if (EdgeExec[EId])
          for (unsigned V = 0; V != NV; ++V)
            Dst[V] = C.meet(Dst[V], EdgeVec[std::size_t(EId) * NV + V]);
    };

    const std::uint64_t MaxPops =
        64 + 512 * (std::uint64_t(NE) + F.numBlocks() + 1) * (NV + 1);
    std::uint64_t Pops = 0;

    Worklist WL(Pool, F.numBlocks());
    BlockExec[F.entry()->id()] = true;
    WL.push(F.entry()->id());
    detail::bump(Ctr.Pushes);

    while (!WL.empty()) {
      if (++Pops > MaxPops)
        return Status::error("dense engine: work bound exceeded "
                             "(non-monotone transfer function?)");
      BasicBlock *BB = F.block(WL.pop());
      detail::bump(Ctr.Pops);
      InVector(BB, Vec);
      for (const auto &IPtr : BB->instructions())
        if (const auto *D = dyn_cast<DefInst>(IPtr.get()))
          Vec[D->def()] = C.transfer(
              *D, [&](const Operand &Op) { return Vec[Op.var()]; },
              /*Executable=*/true);

      auto Propagate = [&](unsigned EId, const Value *V) {
        // The whole V-wide vector crosses the edge even when one slot
        // moved — the work the paper's sparse representation eliminates.
        detail::bump(Ctr.Slots, NV);
        Value *Slot = EdgeVec + std::size_t(EId) * NV;
        if (EdgeExec[EId]) {
          bool Same = true;
          for (unsigned Var = 0; Var != NV && Same; ++Var)
            Same = Client::equal(Slot[Var], V[Var]);
          if (Same)
            return;
        }
        for (unsigned Var = 0; Var != NV; ++Var)
          if (!Client::equal(Slot[Var], V[Var]))
            detail::bump(Ctr.Lowerings);
        EdgeExec[EId] = true;
        std::copy(V, V + NV, Slot);
        BasicBlock *To = E.edge(EId).To;
        BlockExec[To->id()] = true;
        WL.push(To->id());
        detail::bump(Ctr.Pushes);
      };

      Instruction *Term = BB->terminator();
      if (auto *Br = dyn_cast<CondBrInst>(Term)) {
        Value Cond = Br->cond().isImm() ? C.fromImmediate(Br->cond().imm())
                                        : Vec[Br->cond().var()];
        if (C.mayBeTrue(Cond)) {
          std::copy(Vec, Vec + NV, BrVec);
          C.refineBranchVector(BB, Br, Cond, BrVec, /*TrueSide=*/true);
          Propagate(E.outEdge(BB, 0), BrVec);
        }
        if (C.mayBeFalse(Cond)) {
          std::copy(Vec, Vec + NV, BrVec);
          C.refineBranchVector(BB, Br, Cond, BrVec, /*TrueSide=*/false);
          Propagate(E.outEdge(BB, 1), BrVec);
        }
      } else if (isa<JumpInst>(Term)) {
        Propagate(E.outEdge(BB, 0), Vec);
      }
    }

    // Extraction: replay each executable block to record per-use values.
    Out.ExecutableBlock = BlockExec;
    Out.allocate(F);
    std::uint32_t Row = 0;
    for (const auto &BB : F.blocks()) {
      bool Exec = BlockExec[BB->id()];
      if (Exec)
        InVector(BB.get(), Vec);
      for (const auto &IPtr : BB->instructions()) {
        const Instruction *I = IPtr.get();
        Value *Vals = Out.row(Row++);
        if (!Exec)
          continue; // Rows start out bottom-filled; nothing to record.
        for (unsigned Idx = 0; Idx != I->numOperands(); ++Idx) {
          const Operand &Op = I->operand(Idx);
          Vals[Idx] = Op.isImm() ? C.fromImmediate(Op.imm()) : Vec[Op.var()];
        }
        if (const auto *D = dyn_cast<DefInst>(I))
          Vec[D->def()] = C.transfer(
              *D, [&](const Operand &Op) { return Vec[Op.var()]; },
              /*Executable=*/true);
      }
    }
    return Status::success();
  }

private:
  Function &F;
  const Client &C;
  DenseEngineCounters Ctr;
};

/// Convenience front door: run \p C in the requested mode. SparseDFG
/// requires \p G (the function's DepFlowGraph); DenseCFG ignores it.
template <typename Client>
Status solveForward(Function &F, const DepFlowGraph *G, EvalMode Mode,
                    const Client &C,
                    DataflowResult<typename Client::Value> &Out,
                    const SparseEngineCounters &SparseCtr = {},
                    const DenseEngineCounters &DenseCtr = {}) {
  if (Mode == EvalMode::SparseDFG) {
    if (!G)
      return Status::error(
          "sparse engine: SparseDFG mode needs a DepFlowGraph");
    return SparseEngine<Client>(F, *G, C, SparseCtr).run(Out);
  }
  return DenseEngine<Client>(F, C, DenseCtr).run(Out);
}

//===----------------------------------------------------------------------===//
// SparseBackwardEngine: backward solve over one variable's DFG edges
// (the Figure 5b anticipatability shape)
//===----------------------------------------------------------------------===//

/// Read access to edge values stored from edge id `Base` on: edge EId's
/// value is `Vals[EId - Base]`. With Base = 0 the vector is indexed by
/// edge id; with Base = `edgesOfVar(X).first()` it holds X's slice only.
template <typename Value> class EdgeSlice {
  const std::vector<Value> &Vals;
  unsigned Base;

public:
  EdgeSlice(const std::vector<Value> &Vals, unsigned Base)
      : Vals(Vals), Base(Base) {}
  typename std::vector<Value>::const_reference
  operator[](unsigned EId) const {
    return Vals[EId - Base];
  }
};

/// Backward client contract:
/// \code
///   using Value;
///   // How many facts differ between two values (0: equal). A word of
///   // separable bit problems counts its changed bits, so the flip
///   // counter of a batched solve equals the sum of its solo solves.
///   static unsigned distance(const Value &, const Value &);
///   Value evalEdge(const DepFlowGraph &, unsigned EId,
///                  const EdgeSlice<Value> &EdgeVal) const;
/// \endcode
/// Edge EId's value is \p Vals[EId - \p Base] (see `EdgeSlice`); \p Vals
/// must cover \p X's slice, and the caller pre-initializes it to the
/// direction's fixed-point start (e.g. all-true for a greatest fixed
/// point). Only the slice is read or written, and the worklist is sized to
/// the slice, not to the whole graph.
template <typename Client> class SparseBackwardEngine {
public:
  using Value = typename Client::Value;

  static Status solve(const DepFlowGraph &G, VarId X, const Client &C,
                      std::vector<Value> &Vals, unsigned Base,
                      const BackwardEngineCounters &Ctr = {}) {
    const DepFlowGraph::EdgeIdRange Slice = G.edgesOfVar(X);
    const unsigned First = Slice.first();
    if (Base > First ||
        Vals.size() < std::size_t(First - Base) + Slice.size())
      return Status::error("backward engine: edge value vector size "
                           "mismatch");
    const EdgeSlice<Value> View(Vals, Base);
    const std::uint64_t MaxEvals =
        64 + 1024 * (std::uint64_t(G.numEdges()) + 1);
    std::uint64_t Evals = 0;
    // Worklist over X's edges by slice index; when an edge's value
    // changes, the edges entering its source node must be re-evaluated
    // (they are X's edges too).
    Worklist WL(Slice.size());
    for (unsigned I = 0; I != Slice.size(); ++I)
      WL.push(I);
    while (!WL.empty()) {
      if (++Evals > MaxEvals)
        return Status::error("backward engine: work bound exceeded "
                             "(non-monotone edge evaluation?)");
      unsigned EId = First + WL.pop();
      detail::bump(Ctr.Evals);
      Value New = C.evalEdge(G, EId, View);
      const unsigned Changed = Client::distance(View[EId], New);
      if (!Changed)
        continue;
      Vals[EId - Base] = New;
      detail::bump(Ctr.Flips, Changed);
      for (unsigned InId : G.inEdges(G.edge(EId).Src))
        WL.push(InId - First);
    }
    return Status::success();
  }
};

} // namespace depflow

#endif // DEPFLOW_DATAFLOW_SPARSEENGINE_H
