//===- tests/support_test.cpp - Support library tests ---------------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "support/BitVector.h"
#include "support/Casting.h"
#include "support/RNG.h"
#include "support/StringInterner.h"
#include "support/Worklist.h"

#include <gtest/gtest.h>

#include <set>

using namespace depflow;

TEST(BitVector, SetResetTest) {
  BitVector BV(130);
  EXPECT_EQ(BV.size(), 130u);
  EXPECT_TRUE(BV.none());
  BV.set(0).set(64).set(129);
  EXPECT_TRUE(BV.test(0));
  EXPECT_TRUE(BV.test(64));
  EXPECT_TRUE(BV.test(129));
  EXPECT_FALSE(BV.test(1));
  EXPECT_EQ(BV.count(), 3u);
  BV.reset(64);
  EXPECT_FALSE(BV.test(64));
  EXPECT_EQ(BV.count(), 2u);
}

TEST(BitVector, FindFirstNext) {
  BitVector BV(200);
  EXPECT_EQ(BV.findFirst(), -1);
  BV.set(3).set(70).set(199);
  EXPECT_EQ(BV.findFirst(), 3);
  EXPECT_EQ(BV.findNext(3), 70);
  EXPECT_EQ(BV.findNext(70), 199);
  EXPECT_EQ(BV.findNext(199), -1);
}

TEST(BitVector, SetOperations) {
  BitVector A(100), B(100);
  A.set(1).set(50);
  B.set(50).set(99);
  EXPECT_TRUE(A.anyCommon(B));
  BitVector U = A;
  U |= B;
  EXPECT_EQ(U.count(), 3u);
  BitVector I = A;
  I &= B;
  EXPECT_EQ(I.count(), 1u);
  EXPECT_TRUE(I.test(50));
  BitVector D = A;
  D.resetAll(B);
  EXPECT_TRUE(D.test(1));
  EXPECT_FALSE(D.test(50));
}

TEST(BitVector, SetAllRespectsSize) {
  BitVector BV(67);
  BV.set();
  EXPECT_EQ(BV.count(), 67u);
  BV.resize(70, true);
  EXPECT_EQ(BV.count(), 70u);
}

TEST(BitVector, ResizeWithValue) {
  BitVector BV(10);
  BV.set(2);
  BV.resize(100, true);
  EXPECT_TRUE(BV.test(2));
  EXPECT_FALSE(BV.test(3));
  for (unsigned I = 10; I < 100; ++I)
    EXPECT_TRUE(BV.test(I)) << I;
}

TEST(RNG, DeterministicAndBounded) {
  RNG A(7), B(7), C(8);
  bool AllEqual = true, AnyDiffer = false;
  for (int I = 0; I < 100; ++I) {
    std::uint64_t X = A.next();
    AllEqual &= (X == B.next());
    AnyDiffer |= (X != C.next());
  }
  EXPECT_TRUE(AllEqual);
  EXPECT_TRUE(AnyDiffer);
  RNG R(3);
  for (int I = 0; I < 1000; ++I) {
    EXPECT_LT(R.nextBelow(17), 17u);
    std::int64_t X = R.nextInRange(-5, 5);
    EXPECT_GE(X, -5);
    EXPECT_LE(X, 5);
  }
}

TEST(StringInterner, DenseIdsRoundTrip) {
  StringInterner SI;
  unsigned A = SI.intern("x");
  unsigned B = SI.intern("y");
  EXPECT_EQ(SI.intern("x"), A);
  EXPECT_NE(A, B);
  EXPECT_EQ(SI.name(A), "x");
  EXPECT_EQ(SI.lookup("y"), int(B));
  EXPECT_EQ(SI.lookup("zz"), -1);
  EXPECT_EQ(SI.size(), 2u);
}

TEST(Worklist, Deduplicates) {
  Worklist WL(10);
  WL.push(3);
  WL.push(3);
  WL.push(7);
  EXPECT_EQ(WL.size(), 2u);
  EXPECT_EQ(WL.pop(), 3u);
  WL.push(3); // Re-adding after pop is allowed.
  EXPECT_EQ(WL.size(), 2u);
  EXPECT_EQ(WL.pop(), 7u);
  EXPECT_EQ(WL.pop(), 3u);
  EXPECT_TRUE(WL.empty());
}

namespace {
struct Animal {
  enum class Kind { Dog, Cat };
  Kind K;
  explicit Animal(Kind K) : K(K) {}
  Kind kind() const { return K; }
};
struct Dog : Animal {
  Dog() : Animal(Kind::Dog) {}
  static bool classof(const Animal *A) { return A->kind() == Kind::Dog; }
};
struct Cat : Animal {
  Cat() : Animal(Kind::Cat) {}
  static bool classof(const Animal *A) { return A->kind() == Kind::Cat; }
};
} // namespace

TEST(Casting, IsaCastDynCast) {
  Dog D;
  Animal *A = &D;
  EXPECT_TRUE(isa<Dog>(A));
  EXPECT_FALSE(isa<Cat>(A));
  EXPECT_TRUE((isa<Cat, Dog>(A)));
  EXPECT_EQ(cast<Dog>(A), &D);
  EXPECT_EQ(dyn_cast<Cat>(A), nullptr);
  EXPECT_EQ(dyn_cast<Dog>(A), &D);
  Animal *Null = nullptr;
  EXPECT_FALSE(isa_and_present<Dog>(Null));
  EXPECT_EQ(dyn_cast_if_present<Dog>(Null), nullptr);
}
