//===- dataflow/Lattice.cpp - Interval lattice arithmetic -----------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "dataflow/Lattice.h"

#include <algorithm>
#include <array>

using namespace depflow;

namespace {

// The finite bound ladder. Singleton intervals keep their exact value;
// every widened bound is rounded outward onto this set, so any chain of
// strictly growing intervals has length O(|Ladder|) and the fixpoint
// engines terminate without a separate widening phase.
constexpr std::array<std::int64_t, 27> Ladder = {
    -(std::int64_t(1) << 20),
    -65536, -4096, -1024, -256, -128, -64, -32, -16, -8, -4, -2, -1,
    0,
    1, 2, 4, 8, 16, 32, 64, 128, 256, 1024, 4096, 65536,
    std::int64_t(1) << 20,
};

// Largest ladder bound <= X, or -inf.
std::int64_t roundDown(std::int64_t X) {
  if (X == IntervalVal::NegInf)
    return IntervalVal::NegInf;
  for (auto It = Ladder.rbegin(); It != Ladder.rend(); ++It)
    if (*It <= X)
      return *It;
  return IntervalVal::NegInf;
}

// Smallest ladder bound >= X, or +inf.
std::int64_t roundUp(std::int64_t X) {
  if (X == IntervalVal::PosInf)
    return IntervalVal::PosInf;
  for (std::int64_t B : Ladder)
    if (B >= X)
      return B;
  return IntervalVal::PosInf;
}

// The interval [Lo, Hi] of bounds computed exactly in 128 bits. Every
// int64 lies in [INT64_MIN, INT64_MAX], so the -inf/+inf bounds read as
// those values and the arithmetic on them is exact. A bound outside int64
// means the interpreter's arithmetic can wrap, to any value: top.
IntervalVal exactRange(__int128 Lo, __int128 Hi) {
  if (Lo < IntervalVal::NegInf || Hi > IntervalVal::PosInf)
    return IntervalVal::top();
  return IntervalVal::range(std::int64_t(Lo), std::int64_t(Hi));
}

// Decidable interval comparisons produce an exact 0/1; everything else is
// the exact boolean range [0, 1].
IntervalVal boolRange() { return IntervalVal::range(0, 1); }

} // namespace

IntervalVal IntervalVal::range(std::int64_t Lo, std::int64_t Hi) {
  assert(Lo <= Hi && "inverted interval");
  if (Lo == Hi)
    return point(Lo);
  return IntervalVal(roundDown(Lo), roundUp(Hi));
}

IntervalVal IntervalVal::meet(const IntervalVal &O) const {
  if (isBottom())
    return O;
  if (O.isBottom())
    return *this;
  // Exact absorption keeps singleton bounds singleton across confluences.
  if (containedIn(O))
    return O;
  if (O.containedIn(*this))
    return *this;
  return range(std::min(LoB, O.LoB), std::max(HiB, O.HiB));
}

std::string IntervalVal::str() const {
  if (isBottom())
    return "_|_";
  if (isTop())
    return "T";
  if (isPoint())
    return std::to_string(LoB);
  std::string Lo = LoB == NegInf ? "-inf" : std::to_string(LoB);
  std::string Hi = HiB == PosInf ? "+inf" : std::to_string(HiB);
  return "[" + Lo + ", " + Hi + "]";
}

IntervalVal depflow::rangeUnOp(UnOp Op, const IntervalVal &A) {
  assert(!A.isBottom() && "rangeUnOp on bottom");
  if (A.isPoint())
    return IntervalVal::point(evalUnOp(Op, A.lo()));
  switch (Op) {
  case UnOp::Neg:
    return exactRange(-__int128(A.hi()), -__int128(A.lo()));
  case UnOp::Not:
    if (!A.mayBeTrue())
      return IntervalVal::point(1);
    if (!A.mayBeFalse())
      return IntervalVal::point(0);
    return boolRange();
  }
  depflow_unreachable("unknown unary operator");
}

IntervalVal depflow::rangeBinOp(BinOp Op, const IntervalVal &A,
                                const IntervalVal &B) {
  assert(!A.isBottom() && !B.isBottom() && "rangeBinOp on bottom");
  // Point x point folds through the interpreter's arithmetic, so the range
  // analysis can never disagree with constant propagation on constants.
  if (A.isPoint() && B.isPoint())
    return IntervalVal::point(evalBinOp(Op, A.lo(), B.lo()));

  switch (Op) {
  case BinOp::Add:
    return exactRange(__int128(A.lo()) + B.lo(), __int128(A.hi()) + B.hi());
  case BinOp::Sub:
    return exactRange(__int128(A.lo()) - B.hi(), __int128(A.hi()) - B.lo());
  case BinOp::Mul: {
    __int128 C0 = __int128(A.lo()) * B.lo(), C1 = __int128(A.lo()) * B.hi();
    __int128 C2 = __int128(A.hi()) * B.lo(), C3 = __int128(A.hi()) * B.hi();
    return exactRange(std::min({C0, C1, C2, C3}), std::max({C0, C1, C2, C3}));
  }
  case BinOp::Div: {
    // Interpreter semantics: x/0 == 0, otherwise C++ truncated division.
    if (B.isPoint()) {
      std::int64_t D = B.lo();
      if (D == 0)
        return IntervalVal::point(0);
      if (!A.isBounded())
        return IntervalVal::top();
      std::int64_t Q0 = A.lo() / D, Q1 = A.hi() / D;
      return IntervalVal::range(std::min(Q0, Q1), std::max(Q0, Q1));
    }
    if (!A.isBounded())
      return IntervalVal::top();
    // |x / d| <= |x| for every divisor (including d == 0, which yields 0),
    // and a nonnegative (nonpositive) divisor preserves (flips) sign.
    std::int64_t M = std::max(std::llabs(A.lo()), std::llabs(A.hi()));
    if (B.lo() >= 0)
      return IntervalVal::range(std::min<std::int64_t>(A.lo(), 0),
                                std::max<std::int64_t>(A.hi(), 0));
    if (B.hi() <= 0)
      return IntervalVal::range(std::min<std::int64_t>(-A.hi(), 0),
                                std::max<std::int64_t>(-A.lo(), 0));
    return IntervalVal::range(-M, M);
  }
  case BinOp::Eq:
    if (A.hi() < B.lo() || B.hi() < A.lo())
      return IntervalVal::point(0); // Disjoint intervals can never be equal.
    return boolRange();
  case BinOp::Ne:
    if (A.hi() < B.lo() || B.hi() < A.lo())
      return IntervalVal::point(1);
    return boolRange();
  case BinOp::Lt:
    if (A.hi() < B.lo())
      return IntervalVal::point(1);
    if (A.lo() >= B.hi())
      return IntervalVal::point(0);
    return boolRange();
  case BinOp::Le:
    if (A.hi() <= B.lo())
      return IntervalVal::point(1);
    if (A.lo() > B.hi())
      return IntervalVal::point(0);
    return boolRange();
  case BinOp::Gt:
    if (A.lo() > B.hi())
      return IntervalVal::point(1);
    if (A.hi() <= B.lo())
      return IntervalVal::point(0);
    return boolRange();
  case BinOp::Ge:
    if (A.lo() >= B.hi())
      return IntervalVal::point(1);
    if (A.hi() < B.lo())
      return IntervalVal::point(0);
    return boolRange();
  case BinOp::And:
    if (!A.mayBeTrue() || !B.mayBeTrue())
      return IntervalVal::point(0);
    if (!A.mayBeFalse() && !B.mayBeFalse())
      return IntervalVal::point(1);
    return boolRange();
  case BinOp::Or:
    if (!A.mayBeFalse() || !B.mayBeFalse())
      return IntervalVal::point(1);
    if (!A.mayBeTrue() && !B.mayBeTrue())
      return IntervalVal::point(0);
    return boolRange();
  }
  depflow_unreachable("unknown binary operator");
}
