//===- tests/digram_table_test.cpp - Digram hash/table regression --------===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
//
// Collision-focused regression tests for hashDigram() and the robin-hood
// DigramTable. The previous digram hash folded the two symbol words with
// plain shift-xors, which left address-like strided keys clustered in the
// low bits the table indexes with; these tests pin the strengthened
// hash's avalanche and the table's probe-length behavior on exactly those
// adversarial key families.
//
//===----------------------------------------------------------------------===//

#include "sequitur/DigramTable.h"
#include "support/Random.h"

#include <bit>
#include <cstdint>
#include <vector>

#include "gtest/gtest.h"

using namespace orp;
using namespace orp::sequitur;

namespace {

//===----------------------------------------------------------------------===//
// hashDigram quality
//===----------------------------------------------------------------------===//

TEST(DigramHashTest, SingleBitAvalanche) {
  // Flipping any single input bit must flip roughly half the output
  // bits. A weak folding hash fails this badly for high input bits.
  Rng R(7);
  for (int Sample = 0; Sample != 32; ++Sample) {
    uint64_t V1 = R.next();
    uint64_t V2 = R.next();
    uint8_t Tags = static_cast<uint8_t>(R.nextBelow(4));
    uint64_t H = hashDigram(V1, V2, Tags);
    for (int Bit = 0; Bit != 64; ++Bit) {
      uint64_t FlippedV1 = hashDigram(V1 ^ (1ULL << Bit), V2, Tags);
      uint64_t FlippedV2 = hashDigram(V1, V2 ^ (1ULL << Bit), Tags);
      EXPECT_GE(std::popcount(H ^ FlippedV1), 16) << "V1 bit " << Bit;
      EXPECT_LE(std::popcount(H ^ FlippedV1), 48) << "V1 bit " << Bit;
      EXPECT_GE(std::popcount(H ^ FlippedV2), 16) << "V2 bit " << Bit;
      EXPECT_LE(std::popcount(H ^ FlippedV2), 48) << "V2 bit " << Bit;
    }
  }
}

TEST(DigramHashTest, OrderAndTagSensitivity) {
  // (a, b) and (b, a) are different digrams; equal values with different
  // tags (terminal vs. rule id) are different digrams too.
  Rng R(13);
  for (int Sample = 0; Sample != 256; ++Sample) {
    uint64_t A = R.nextBelow(1024);
    uint64_t B = R.nextBelow(1024);
    if (A != B) {
      EXPECT_NE(hashDigram(A, B, 0), hashDigram(B, A, 0));
    }
    for (uint8_t T1 = 0; T1 != 4; ++T1)
      for (uint8_t T2 = static_cast<uint8_t>(T1 + 1); T2 != 4; ++T2)
        EXPECT_NE(hashDigram(A, B, T1), hashDigram(A, B, T2));
  }
}

TEST(DigramHashTest, StridedKeysSpreadAcrossLowBits) {
  // Offsets in profiled streams are multiples of the access size; rule
  // ids are consecutive integers. Both families must still spread over
  // the low bits a power-of-2 table masks with.
  constexpr size_t Buckets = 256;
  constexpr size_t Keys = 4096;
  for (uint64_t Stride : {8ULL, 64ULL, 4096ULL}) {
    std::vector<uint32_t> Histogram(Buckets, 0);
    for (size_t I = 0; I != Keys; ++I)
      ++Histogram[hashDigram(I * Stride, (I + 1) * Stride, 0) & (Buckets - 1)];
    // Expected load 16 per bucket; no bucket may be empty or grossly
    // overloaded under a full-avalanche finalizer.
    for (size_t B = 0; B != Buckets; ++B) {
      EXPECT_GT(Histogram[B], 0u) << "stride " << Stride << " bucket " << B;
      EXPECT_LT(Histogram[B], 48u) << "stride " << Stride << " bucket " << B;
    }
  }
}

//===----------------------------------------------------------------------===//
// DigramTable behavior, for every value type the table is used with: the
// grammar stores 32-bit arena indices, other callers 64-bit values.
//===----------------------------------------------------------------------===//

template <typename ValueT> class DigramTableTest : public testing::Test {};
using ValueTypes = testing::Types<int, uint32_t, uint64_t>;
TYPED_TEST_SUITE(DigramTableTest, ValueTypes);

TEST(DigramTableLayoutTest, SlotBytes) {
  // The grammar's index is DigramTable<uint32_t>: two 64-bit key words,
  // a 32-bit value, the tag and displacement bytes, padded to 24.
  EXPECT_EQ(DigramTable<uint32_t>::SlotBytes, 24u);
  EXPECT_EQ(DigramTable<uint64_t>::SlotBytes, 32u);
  DigramTable<uint32_t> T;
  EXPECT_EQ(T.capacity(), 64u);
  for (uint64_t I = 0; I != 1000; ++I)
    T.insert(I, I + 1, 0, static_cast<uint32_t>(I));
  // Load factor 0.7 on a power-of-two capacity.
  EXPECT_EQ(T.capacity(), 2048u);
}

TYPED_TEST(DigramTableTest, InsertFindErase) {
  using Table = DigramTable<TypeParam>;
  Table T;
  EXPECT_EQ(T.findSlot(1, 2, 0), Table::Npos);
  T.insert(1, 2, 0, TypeParam(42));
  size_t Slot = T.findSlot(1, 2, 0);
  ASSERT_NE(Slot, Table::Npos);
  EXPECT_EQ(T.valueAt(Slot), TypeParam(42));
  // Same values, different tags: distinct key.
  EXPECT_EQ(T.findSlot(1, 2, 1), Table::Npos);
  T.eraseSlot(Slot);
  EXPECT_EQ(T.findSlot(1, 2, 0), Table::Npos);
  EXPECT_EQ(T.size(), 0u);
}

TYPED_TEST(DigramTableTest, SurvivesGrowthAndChurn) {
  using Table = DigramTable<TypeParam>;
  Table T;
  Rng R(3);
  constexpr uint64_t N = 20000;
  for (uint64_t I = 0; I != N; ++I)
    T.insert(I, I * 3, static_cast<uint8_t>(I & 3), TypeParam(I));
  EXPECT_EQ(T.size(), N);
  // Erase a random half, then verify every membership answer.
  std::vector<bool> Erased(N, false);
  for (uint64_t I = 0; I != N; ++I)
    if (R.nextBool(0.5)) {
      size_t Slot = T.findSlot(I, I * 3, static_cast<uint8_t>(I & 3));
      ASSERT_NE(Slot, Table::Npos);
      T.eraseSlot(Slot);
      Erased[I] = true;
    }
  for (uint64_t I = 0; I != N; ++I) {
    size_t Slot = T.findSlot(I, I * 3, static_cast<uint8_t>(I & 3));
    if (Erased[I]) {
      EXPECT_EQ(Slot, Table::Npos);
    } else {
      ASSERT_NE(Slot, Table::Npos);
      EXPECT_EQ(T.valueAt(Slot), TypeParam(I));
    }
  }
}

TYPED_TEST(DigramTableTest, CollisionHeavyKeysKeepShortProbes) {
  // Regression guard: the adversarial families that defeated the old
  // folded hash (large strides, aligned bases, consecutive rule ids)
  // must keep robin-hood probe sequences short. With a sound hash at
  // load factor <= 0.7 the longest probe stays in single digits; a
  // clustered hash pushes it to dozens (and in the worst case trips the
  // table's MaxDisplacement rehash loop).
  struct Family {
    const char *Name;
    uint64_t Base, Stride;
  } Families[] = {
      {"page_aligned", 0x7f0000000000ULL, 4096},
      {"cacheline", 0x560000001000ULL, 64},
      {"word", 0, 8},
      {"rule_ids", 0, 1},
  };
  for (const Family &F : Families) {
    DigramTable<TypeParam> T;
    for (uint64_t I = 0; I != 8192; ++I)
      T.insert(F.Base + I * F.Stride, F.Base + (I + 1) * F.Stride, 0,
               TypeParam(I));
    EXPECT_LE(T.maxProbeLength(), 12u) << F.Name;
  }
}

TYPED_TEST(DigramTableTest, FindOrInsertMatchesFindThenInsert) {
  // findOrInsert is findSlot + insert in one walk: the same answers and,
  // through every growth step, the same slot layout.
  using Table = DigramTable<TypeParam>;
  Table Split, Fused;
  Rng R(11);
  for (uint64_t I = 0; I != 5000; ++I) {
    uint64_t V1 = R.nextBelow(3000) * 64, V2 = R.nextBelow(4);
    uint8_t Tags = static_cast<uint8_t>(R.nextBelow(4));
    size_t Slot = Split.findSlot(V1, V2, Tags);
    if (Slot == Table::Npos)
      Split.insert(V1, V2, Tags, TypeParam(I));
    size_t FusedSlot = Fused.findOrInsert(V1, V2, Tags, TypeParam(I));
    ASSERT_EQ(FusedSlot, Slot) << I;
    if (Slot != Table::Npos)
      EXPECT_EQ(Fused.valueAt(FusedSlot), Split.valueAt(Slot));
  }
  EXPECT_EQ(Fused.size(), Split.size());
  EXPECT_EQ(Fused.capacity(), Split.capacity());
  std::vector<uint64_t> A, B;
  Split.forEach([&](uint64_t V1, uint64_t V2, uint8_t Tags, TypeParam V) {
    A.insert(A.end(), {V1, V2, Tags, static_cast<uint64_t>(V)});
  });
  Fused.forEach([&](uint64_t V1, uint64_t V2, uint8_t Tags, TypeParam V) {
    B.insert(B.end(), {V1, V2, Tags, static_cast<uint64_t>(V)});
  });
  EXPECT_EQ(A, B);
}

TYPED_TEST(DigramTableTest, ForEachVisitsEveryEntry) {
  DigramTable<TypeParam> T;
  constexpr uint64_t N = 1000;
  for (uint64_t I = 0; I != N; ++I)
    T.insert(I, I + 1, 0, TypeParam(I));
  std::vector<bool> Seen(N, false);
  T.forEach([&](uint64_t V1, uint64_t V2, uint8_t Tags, TypeParam Value) {
    EXPECT_EQ(V2, V1 + 1);
    EXPECT_EQ(Tags, 0);
    EXPECT_EQ(static_cast<uint64_t>(Value), V1);
    ASSERT_LT(static_cast<uint64_t>(Value), N);
    EXPECT_FALSE(Seen[Value]);
    Seen[Value] = true;
  });
  for (uint64_t I = 0; I != N; ++I)
    EXPECT_TRUE(Seen[I]) << I;
}

} // namespace
