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
// The table stores no keys: it reads them back through a key reader, as
// the grammar reads a digram from its two symbols. Here a KeyStore
// fixture plays the grammar — node I's digram is Keys[I].
//
//===----------------------------------------------------------------------===//

#include "sequitur/DigramTable.h"
#include "support/Random.h"

#include <bit>
#include <cstdint>
#include <unordered_map>
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
// DigramTable behavior
//===----------------------------------------------------------------------===//

using NodeIdx = DigramTable::NodeIdx;

/// Stand-in for the grammar: node I (I >= 1; 0 marks an empty slot)
/// carries the digram Keys[I], and the reader counts its calls.
struct KeyStore {
  std::vector<DigramKey> Keys{DigramKey{0, 0, 0}};
  mutable size_t Reads = 0;

  NodeIdx add(const DigramKey &K) {
    Keys.push_back(K);
    return static_cast<NodeIdx>(Keys.size() - 1);
  }
  auto reader() const {
    return [this](NodeIdx I) {
      ++Reads;
      return Keys.at(I);
    };
  }
};

/// Returns \p N distinct keys whose stored hashes agree in the low
/// \p Bits bits: they share a home slot in every table of at most
/// 2^Bits slots.
std::vector<DigramKey> keysSharingHome(size_t N, unsigned Bits) {
  std::vector<DigramKey> Out;
  const uint32_t Want = DigramTable::hash32(DigramKey{0, 1, 0}) &
                        ((uint32_t(1) << Bits) - 1);
  for (uint64_t V = 0; Out.size() != N; ++V) {
    DigramKey K{V, V + 1, 0};
    if ((DigramTable::hash32(K) & ((uint32_t(1) << Bits) - 1)) == Want)
      Out.push_back(K);
  }
  return Out;
}

TEST(DigramTableLayoutTest, SlotBytes) {
  // A slot is the first symbol's 32-bit index and 32 bits of hash.
  EXPECT_EQ(DigramTable::SlotBytes, 8u);
  EXPECT_EQ(DigramTable::MaxCapacity, uint64_t(1) << 32);
  KeyStore Store;
  DigramTable T;
  EXPECT_EQ(T.capacity(), 64u);
  for (uint64_t I = 0; I != 1000; ++I) {
    DigramKey K{I, I + 1, 0};
    T.insert(K, Store.add(K));
  }
  // Load factor 0.7 on a power-of-two capacity.
  EXPECT_EQ(T.capacity(), 2048u);
  EXPECT_EQ(T.size(), 1000u);
  // Growth rehashes from the stored hashes alone.
  EXPECT_EQ(Store.Reads, 0u);
}

TEST(DigramTableTest, InsertFindErase) {
  KeyStore Store;
  DigramTable T;
  DigramKey K{1, 2, 0};
  EXPECT_EQ(T.findSlot(K, Store.reader()), DigramTable::Npos);
  NodeIdx N = Store.add(K);
  T.insert(K, N);
  size_t Slot = T.findSlot(K, Store.reader());
  ASSERT_NE(Slot, DigramTable::Npos);
  EXPECT_EQ(T.nodeAt(Slot), N);
  // Same values, different tags: distinct key.
  EXPECT_EQ(T.findSlot(DigramKey{1, 2, 1}, Store.reader()), DigramTable::Npos);
  T.eraseSlot(Slot);
  EXPECT_EQ(T.findSlot(K, Store.reader()), DigramTable::Npos);
  EXPECT_EQ(T.size(), 0u);
}

TEST(DigramTableTest, FindEntryMatchesNodeWithoutReadingKeys) {
  // findEntry names an entry by node and key hash, so it tells the
  // indexed occurrence of a digram from an unindexed twin without a
  // key read.
  KeyStore Store;
  DigramTable T;
  DigramKey K{7, 9, 2};
  NodeIdx Indexed = Store.add(K);
  NodeIdx Twin = Store.add(K);
  T.insert(K, Indexed);
  size_t Slot = T.findEntry(K, Indexed);
  ASSERT_NE(Slot, DigramTable::Npos);
  EXPECT_EQ(T.nodeAt(Slot), Indexed);
  EXPECT_EQ(T.findEntry(K, Twin), DigramTable::Npos);
  EXPECT_EQ(T.findEntry(DigramKey{7, 9, 0}, Indexed), DigramTable::Npos);
  EXPECT_EQ(Store.Reads, 0u);
}

TEST(DigramTableTest, KeysAreReadOnlyOnHashMatch) {
  // Two keys with equal stored hashes must still be told apart by the
  // key reader, and the reader must not run for entries whose stored
  // hash differs from the query's.
  std::unordered_map<uint32_t, DigramKey> Seen;
  DigramKey A{0, 0, 0}, B{0, 0, 0};
  for (uint64_t V = 1;; ++V) {
    DigramKey K{V * 64, V * 64 + 8, 0};
    auto [It, New] = Seen.emplace(DigramTable::hash32(K), K);
    if (!New) {
      A = It->second;
      B = K;
      break;
    }
  }
  ASSERT_EQ(DigramTable::hash32(A), DigramTable::hash32(B));
  ASSERT_FALSE(A == B);

  KeyStore Store;
  DigramTable T;
  NodeIdx NA = Store.add(A);
  T.insert(A, NA);
  // B hashes like A: the walk reads A's key, sees it differ, and misses.
  Store.Reads = 0;
  EXPECT_EQ(T.findSlot(B, Store.reader()), DigramTable::Npos);
  EXPECT_EQ(Store.Reads, 1u);
  NodeIdx NB = Store.add(B);
  EXPECT_EQ(T.findOrInsert(B, NB, Store.reader()), DigramTable::Npos);
  EXPECT_EQ(T.nodeAt(T.findSlot(A, Store.reader())), NA);
  EXPECT_EQ(T.nodeAt(T.findSlot(B, Store.reader())), NB);

  // A key with a different hash meets neither entry's key.
  for (uint64_t I = 0; I != 200; ++I) {
    DigramKey K{I, I * 5, 1};
    if (DigramTable::hash32(K) == DigramTable::hash32(A))
      continue;
    Store.Reads = 0;
    EXPECT_EQ(T.findSlot(K, Store.reader()), DigramTable::Npos);
    EXPECT_EQ(Store.Reads, 0u);
  }
}

TEST(DigramTableTest, SurvivesGrowthAndChurn) {
  KeyStore Store;
  DigramTable T;
  Rng R(3);
  constexpr uint64_t N = 20000;
  auto KeyOf = [](uint64_t I) {
    return DigramKey{I, I * 3, static_cast<uint8_t>(I & 3)};
  };
  for (uint64_t I = 0; I != N; ++I)
    T.insert(KeyOf(I), Store.add(KeyOf(I)));
  EXPECT_EQ(T.size(), N);
  // Erase a random half, then verify every membership answer.
  std::vector<bool> Erased(N, false);
  for (uint64_t I = 0; I != N; ++I)
    if (R.nextBool(0.5)) {
      size_t Slot = T.findSlot(KeyOf(I), Store.reader());
      ASSERT_NE(Slot, DigramTable::Npos);
      T.eraseSlot(Slot);
      Erased[I] = true;
    }
  for (uint64_t I = 0; I != N; ++I) {
    size_t Slot = T.findSlot(KeyOf(I), Store.reader());
    if (Erased[I]) {
      EXPECT_EQ(Slot, DigramTable::Npos);
    } else {
      ASSERT_NE(Slot, DigramTable::Npos);
      EXPECT_EQ(T.nodeAt(Slot), static_cast<NodeIdx>(I + 1));
    }
  }
}

TEST(DigramTableTest, BackwardShiftDeletionCompactsProbeRuns) {
  // Keys sharing one home slot sit in a contiguous run. Erasing the head
  // shifts the rest back one slot each, leaving no tombstone: the run
  // gets shorter and every survivor stays findable.
  KeyStore Store;
  DigramTable T;
  std::vector<DigramKey> Keys = keysSharingHome(6, 6); // Capacity 64.
  for (const DigramKey &K : Keys)
    T.insert(K, Store.add(K));
  ASSERT_EQ(T.capacity(), 64u);
  EXPECT_EQ(T.maxProbeLength(), 6u);
  size_t Home = T.findSlot(Keys[0], Store.reader());
  ASSERT_NE(Home, DigramTable::Npos);
  T.eraseSlot(Home);
  EXPECT_EQ(T.maxProbeLength(), 5u);
  EXPECT_EQ(T.findSlot(Keys[0], Store.reader()), DigramTable::Npos);
  for (size_t I = 1; I != Keys.size(); ++I) {
    size_t Slot = T.findSlot(Keys[I], Store.reader());
    ASSERT_NE(Slot, DigramTable::Npos) << I;
    EXPECT_EQ(T.nodeAt(Slot), static_cast<NodeIdx>(I + 1));
  }
  // The survivors now fill Home .. Home+4: the freed slot at the end of
  // the run is empty again.
  std::vector<bool> Used(T.capacity(), false);
  T.forEach([&](size_t Slot, NodeIdx, uint32_t) { Used[Slot] = true; });
  for (size_t D = 0; D != 5; ++D)
    EXPECT_TRUE(Used[(Home + D) & 63]) << D;
  EXPECT_FALSE(Used[(Home + 5) & 63]);
  EXPECT_EQ(T.size(), 5u);
}

TEST(DigramTableTest, GrowsUnderPathologicalClustering) {
  // 300 keys share a home slot in every table of up to 2^12 slots, so
  // probe runs reach the displacement cap long before the load factor
  // asks for growth. The table must grow until the keys spread, and
  // keep every key findable.
  KeyStore Store;
  DigramTable T;
  std::vector<DigramKey> Keys = keysSharingHome(300, 12);
  for (const DigramKey &K : Keys)
    ASSERT_EQ(T.findOrInsert(K, Store.add(K), Store.reader()),
              DigramTable::Npos);
  EXPECT_EQ(T.size(), Keys.size());
  EXPECT_GT(T.capacity(), 512u) << "load factor alone stops at 512";
  EXPECT_LT(T.maxProbeLength(), 255u);
  for (size_t I = 0; I != Keys.size(); ++I) {
    size_t Slot = T.findSlot(Keys[I], Store.reader());
    ASSERT_NE(Slot, DigramTable::Npos) << I;
    EXPECT_EQ(T.nodeAt(Slot), static_cast<NodeIdx>(I + 1));
  }
}

TEST(DigramTableTest, CollisionHeavyKeysKeepShortProbes) {
  // Regression guard: the adversarial families that defeated the old
  // folded hash (large strides, aligned bases, consecutive rule ids)
  // must keep robin-hood probe sequences short. With a sound hash at
  // load factor <= 0.7 the longest probe stays in single digits; a
  // clustered hash pushes it to dozens (and in the worst case trips the
  // table's displacement-cap rehash loop).
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
    KeyStore Store;
    DigramTable T;
    for (uint64_t I = 0; I != 8192; ++I) {
      DigramKey K{F.Base + I * F.Stride, F.Base + (I + 1) * F.Stride, 0};
      T.insert(K, Store.add(K));
    }
    EXPECT_LE(T.maxProbeLength(), 12u) << F.Name;
  }
}

TEST(DigramTableTest, FindOrInsertMatchesFindThenInsert) {
  // findOrInsert is findSlot + insert in one walk: the same answers and,
  // through every growth step, the same slot layout.
  KeyStore Store;
  DigramTable Split, Fused;
  Rng R(11);
  for (uint64_t I = 0; I != 5000; ++I) {
    DigramKey K{R.nextBelow(3000) * 64, R.nextBelow(4),
                static_cast<uint8_t>(R.nextBelow(4))};
    NodeIdx N = Store.add(K);
    size_t Slot = Split.findSlot(K, Store.reader());
    if (Slot == DigramTable::Npos)
      Split.insert(K, N);
    size_t FusedSlot = Fused.findOrInsert(K, N, Store.reader());
    ASSERT_EQ(FusedSlot, Slot) << I;
    if (Slot != DigramTable::Npos) {
      EXPECT_EQ(Fused.nodeAt(FusedSlot), Split.nodeAt(Slot));
    }
  }
  EXPECT_EQ(Fused.size(), Split.size());
  EXPECT_EQ(Fused.capacity(), Split.capacity());
  std::vector<uint64_t> A, B;
  Split.forEach([&](size_t Slot, NodeIdx N, uint32_t H) {
    A.insert(A.end(), {Slot, N, H});
  });
  Fused.forEach([&](size_t Slot, NodeIdx N, uint32_t H) {
    B.insert(B.end(), {Slot, N, H});
  });
  EXPECT_EQ(A, B);
}

TEST(DigramTableTest, ForEachVisitsEveryEntry) {
  KeyStore Store;
  DigramTable T;
  constexpr uint64_t N = 1000;
  for (uint64_t I = 0; I != N; ++I) {
    DigramKey K{I, I + 1, 0};
    T.insert(K, Store.add(K));
  }
  std::vector<bool> Seen(N + 1, false);
  T.forEach([&](size_t Slot, NodeIdx Node, uint32_t Hash) {
    ASSERT_GE(Node, 1u);
    ASSERT_LE(Node, N);
    const DigramKey &K = Store.Keys[Node];
    EXPECT_EQ(K.V2, K.V1 + 1);
    EXPECT_EQ(Hash, DigramTable::hash32(K));
    EXPECT_EQ(T.nodeAt(Slot), Node);
    EXPECT_FALSE(Seen[Node]);
    Seen[Node] = true;
  });
  for (uint64_t I = 1; I <= N; ++I)
    EXPECT_TRUE(Seen[I]) << I;
}

TEST(DigramTableTest, ReleaseFreesEverySlot) {
  KeyStore Store;
  DigramTable T;
  for (uint64_t I = 0; I != 1000; ++I) {
    DigramKey K{I, I + 1, 0};
    T.insert(K, Store.add(K));
  }
  ASSERT_EQ(T.capacity(), 2048u);
  T.release();
  EXPECT_EQ(T.size(), 0u);
  EXPECT_EQ(T.capacity(), 0u);
  EXPECT_EQ(T.maxProbeLength(), 0u);
  size_t Visited = 0;
  T.forEach([&](size_t, NodeIdx, uint32_t) { ++Visited; });
  EXPECT_EQ(Visited, 0u);
}

} // namespace
