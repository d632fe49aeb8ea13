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
///   template <typename GetFn>                     // GetFn: (const Operand&)
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
#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

namespace depflow {

/// How a forward client evaluates: sparse tokens on the DFG (the paper's
/// preferred representation) or dense vectors on the CFG (the differential
/// fallback).
enum class EvalMode : std::uint8_t { SparseDFG, DenseCFG };

inline const char *evalModeName(EvalMode M) {
  return M == EvalMode::SparseDFG ? "sparse-dfg" : "dense-cfg";
}

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
  Statistic *Flips = nullptr; // edge value changes
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
/// Storage is struct-of-arrays over the canonical instruction order (the
/// function's block/instruction walk): row R holds the values of
/// instruction R at `Values[Offsets[R] .. Offsets[R+1])`, and pointer-keyed
/// queries binary-search one sorted side index instead of hashing. Only
/// `Instrs`/`Index` hold pointers — `Offsets`/`Values`/`ExecutableBlock`
/// are pure positions, so `snapshot()` captures a result that outlives its
/// function and `bindTo()` re-attaches it to any structurally identical
/// function (e.g. a re-parsed clone). That relocatability is what lets
/// cached analysis results move between pipeline stages by value.
template <typename ValueT> struct DataflowResult {
  using Value = ValueT;

  /// Per block id: can the block execute?
  std::vector<bool> ExecutableBlock;

  /// Lays out one row per instruction of \p F in canonical order, every
  /// value ⊥, and binds the pointer index. Engines fill rows in the same
  /// walk via `row()`.
  void allocate(const Function &F) {
    std::uint32_t NumInstrs = 0, NumSlots = 0;
    for (const auto &BB : F.blocks())
      for (const auto &I : BB->instructions()) {
        ++NumInstrs;
        NumSlots += I->numOperands();
      }
    Offsets.clear();
    Offsets.reserve(NumInstrs + 1);
    Offsets.push_back(0);
    for (const auto &BB : F.blocks())
      for (const auto &I : BB->instructions())
        Offsets.push_back(Offsets.back() + I->numOperands());
    Values.assign(NumSlots, ValueT::bottom());
    bindTo(F);
  }

  /// Number of instruction rows.
  std::uint32_t size() const {
    return Offsets.empty() ? 0 : std::uint32_t(Offsets.size() - 1);
  }
  /// Operand-value slots of row \p R (canonical instruction index).
  ValueT *row(std::uint32_t R) { return Values.data() + Offsets[R]; }
  const ValueT *row(std::uint32_t R) const {
    return Values.data() + Offsets[R];
  }
  unsigned rowWidth(std::uint32_t R) const {
    return Offsets[R + 1] - Offsets[R];
  }

  ValueT useValue(const Instruction *I, unsigned OpIdx) const {
    auto It = std::lower_bound(
        Index.begin(), Index.end(), I,
        [](const InstRow &Row, const Instruction *P) {
          return std::less<const Instruction *>()(Row.I, P);
        });
    if (It == Index.end() || It->I != I || OpIdx >= rowWidth(It->Row))
      return ValueT::bottom();
    return Values[Offsets[It->Row] + OpIdx];
  }

  /// Calls \p Fn(instruction, values, numValues) for every row in
  /// canonical order.
  template <typename Fn> void forEachInstruction(Fn &&F) const {
    for (std::uint32_t R = 0, N = size(); R != N; ++R)
      F(Instrs[R], row(R), rowWidth(R));
  }

  /// The position-based payload alone — no instruction pointers. The copy
  /// stays valid after the source function is destroyed; `bindTo()` makes
  /// it queryable again.
  DataflowResult snapshot() const {
    DataflowResult S;
    S.ExecutableBlock = ExecutableBlock;
    S.Offsets = Offsets;
    S.Values = Values;
    return S;
  }

  /// Re-binds the payload to \p F, whose canonical walk must match the one
  /// the payload was produced from (same instruction count and operand
  /// widths — asserted). Rebuilds `Instrs` and the sorted index.
  void bindTo(const Function &F) {
    Instrs.clear();
    Instrs.reserve(size());
    for (const auto &BB : F.blocks())
      for (const auto &I : BB->instructions())
        Instrs.push_back(I.get());
    assert(Instrs.size() == size() &&
           "result bound to a structurally different function");
    Index.clear();
    Index.reserve(Instrs.size());
    for (std::uint32_t R = 0; R != Instrs.size(); ++R) {
      assert(Instrs[R]->numOperands() == rowWidth(R) &&
             "operand widths diverge from the bound function");
      Index.push_back({Instrs[R], R});
    }
    std::sort(Index.begin(), Index.end(),
              [](const InstRow &A, const InstRow &B) {
                return std::less<const Instruction *>()(A.I, B.I);
              });
  }

private:
  struct InstRow {
    const Instruction *I;
    std::uint32_t Row;
  };
  std::vector<const Instruction *> Instrs; // [row] -> instruction
  std::vector<std::uint32_t> Offsets;      // [row] -> first value slot
  std::vector<ValueT> Values;              // flat operand values
  std::vector<InstRow> Index;              // sorted by pointer
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
        Pool(arenaBytes(G.numNodes(), G.numEdges())),
        EdgeVal(Pool.allocateFilled<Value>(G.numEdges(), Client::bottom())),
        TokensPerEdge(Pool.allocateFilled<std::uint64_t>(G.numEdges(), 0)),
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
    if (Ctr.TokensPerEdge)
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

  /// Lattice value of instruction operand \p Idx. Dead instructions report
  /// ⊥ for every operand, even when region bypassing routed a (termination-
  /// optimistic) value past the switch that guards them — this keeps the
  /// reported results identical to the dense algorithm's.
  Value operandValue(const Instruction *I, unsigned Idx,
                     bool Executable) const {
    if (!Executable)
      return Client::bottom();
    const Operand &Op = I->operand(Idx);
    if (Op.isImm())
      return C.fromImmediate(Op.imm());
    return useValue(G.useNode(I, Idx));
  }

  /// Executability of instruction \p I: the control use if it has one,
  /// otherwise the liveness of its first variable operand's dependence.
  bool executable(const Instruction *I) const {
    int Ctrl = G.useNode(I, I->numOperands());
    if (Ctrl >= 0)
      return !isBottom(useValue(Ctrl));
    for (unsigned Idx = 0; Idx != I->numOperands(); ++Idx)
      if (I->operand(Idx).isVar())
        return !isBottom(useValue(G.useNode(I, Idx)));
    return true; // No operands at all: treated as executable.
  }

  const Value &edgeValue(unsigned EId) const { return EdgeVal[EId]; }

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
                                        : useValue(G.useNode(Br, 0));
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
        Value *Vals = R.row(Row++);
        for (unsigned Idx = 0; Idx != I->numOperands(); ++Idx)
          Vals[Idx] = operandValue(I, Idx, Exec);
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
  std::uint64_t *TokensPerEdge;
  ArenaWorklist WL;

  static std::size_t arenaBytes(std::size_t Nodes, std::size_t Edges) {
    return Edges * (sizeof(Value) + 8) + Nodes * 4 + 8 * ((Nodes + 63) / 64) +
           128;
  }

  bool isBottom(const Value &V) const {
    return Client::equal(V, Client::bottom());
  }

  void writeEdge(unsigned EId, const Value &V) {
    detail::bump(Ctr.Tokens);
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
        if (int D = G.defNode(I); D >= 0)
          schedule(unsigned(D));
      } else if (isa<CondBrInst>(I)) {
        for (VarId V = 0; V <= F.numVars(); ++V)
          if (int S = G.switchNode(Node.Block, V); S >= 0)
            schedule(unsigned(S));
      }
      break;
    }
    case DepFlowGraph::NodeKind::Def: {
      const auto *D = cast<DefInst>(Node.Inst);
      // The client's transfer resolves immediates itself; the callback only
      // sees variable operands and maps them back to their use nodes.
      Value Out = C.transfer(
          *D,
          [&](const Operand &Op) {
            for (unsigned Idx = 0; Idx != D->numOperands(); ++Idx)
              if (D->operand(Idx) == Op)
                return useValue(G.useNode(D, Idx));
            depflow_unreachable("operand not found on its instruction");
          },
          executable(D));
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
        Pred = useValue(G.useNode(Br, 0));
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

    ArenaWorklist WL(Pool, F.numBlocks());
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

/// Backward client contract:
/// \code
///   using Value;
///   static bool equal(const Value &, const Value &);
///   Value evalEdge(const DepFlowGraph &, unsigned EId,
///                  const std::vector<Value> &EdgeVal) const;
/// \endcode
/// The caller pre-initializes \p EdgeVal to the direction's fixed-point
/// start (e.g. all-true for a greatest fixed point).
template <typename Client> class SparseBackwardEngine {
public:
  using Value = typename Client::Value;

  static Status solve(const DepFlowGraph &G, VarId X, const Client &C,
                      std::vector<Value> &EdgeVal,
                      const BackwardEngineCounters &Ctr = {}) {
    if (EdgeVal.size() != G.numEdges())
      return Status::error("backward engine: edge value vector size "
                           "mismatch");
    const std::uint64_t MaxEvals =
        64 + 1024 * (std::uint64_t(G.numEdges()) + 1);
    std::uint64_t Evals = 0;
    // Worklist over X's edges (one contiguous id range); when an edge's
    // value changes, the edges entering its source node must be
    // re-evaluated.
    Worklist WL(G.numEdges());
    for (unsigned EId : G.edgesOfVar(X))
      WL.push(EId);
    while (!WL.empty()) {
      if (++Evals > MaxEvals)
        return Status::error("backward engine: work bound exceeded "
                             "(non-monotone edge evaluation?)");
      unsigned EId = WL.pop();
      detail::bump(Ctr.Evals);
      Value New = C.evalEdge(G, EId, EdgeVal);
      if (Client::equal(New, EdgeVal[EId]))
        continue;
      EdgeVal[EId] = New;
      detail::bump(Ctr.Flips);
      for (unsigned InId : G.inEdges(G.edge(EId).Src))
        WL.push(InId);
    }
    return Status::success();
  }
};

} // namespace depflow

#endif // DEPFLOW_DATAFLOW_SPARSEENGINE_H
