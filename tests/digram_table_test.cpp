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
#include <cstdio>
#include <fstream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <malloc.h>

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

/// Returns \p N distinct keys whose hashes agree in the low \p Bits
/// bits: they share a home slot in every table of at most 2^Bits slots.
std::vector<DigramKey> keysSharingHome(size_t N, unsigned Bits) {
  std::vector<DigramKey> Out;
  const uint64_t Low = (uint64_t(1) << Bits) - 1;
  const uint64_t Want = hashDigram(DigramKey{0, 1, 0}) & Low;
  for (uint64_t V = 0; Out.size() != N; ++V) {
    DigramKey K{V, V + 1, 0};
    if ((hashDigram(K) & Low) == Want)
      Out.push_back(K);
  }
  return Out;
}

/// Inserts keys {I, I + 1, 0} for I = First .. First + N - 1.
void insertRun(DigramTable &T, KeyStore &Store, uint64_t First, uint64_t N) {
  for (uint64_t I = First; I != First + N; ++I) {
    DigramKey K{I, I + 1, 0};
    T.insert(K, Store.add(K), Store.reader());
  }
}

/// True when every entry agrees with its node's key: its home and its
/// extension bits, and a lookup of the key reaches it.
bool entriesMatchKeys(const DigramTable &T, const KeyStore &Store) {
  bool Ok = true;
  T.forEach([&](size_t Slot, NodeIdx Node) {
    const DigramKey &K = Store.Keys.at(Node);
    Ok &= T.matchesHash(Slot, K) && T.findSlot(K, Store.reader()) == Slot;
  });
  return Ok;
}

/// Entries at which a table of initial capacity 64 reaches 2^10 slots,
/// and the most it holds there before the next doubling (load 0.7).
constexpr uint64_t FillsTo2Pow10 = 359;
constexpr uint64_t FullAt2Pow10 = 716;

TEST(DigramTableLayoutTest, SlotBytes) {
  // A slot is the first symbol's 32-bit index, a displacement byte and
  // a byte of extension bits.
  EXPECT_EQ(DigramTable::SlotBytes, 6u);
  EXPECT_EQ(DigramTable::MaxCapacity, uint64_t(1) << 32);
  KeyStore Store;
  DigramTable T;
  insertRun(T, Store, 0, 1); // The first insertion maps 64 slots.
  EXPECT_EQ(T.capacity(), 64u);
  EXPECT_EQ(T.validExtensionBits(), 8u);
  insertRun(T, Store, 1, 999);
  // Load factor 0.7 on a power-of-two capacity.
  EXPECT_EQ(T.capacity(), 2048u);
  EXPECT_EQ(T.size(), 1000u);
}

TEST(DigramTableTest, KeyFreeGrowthReadsNoKey) {
  // Each doubling from 2^6 to 2^10 slots takes the new home bit from an
  // entry's extension bits: no key is read, and one bit fewer is valid.
  KeyStore Store;
  DigramTable T;
  insertRun(T, Store, 0, 1); // Maps 2^6 slots.
  size_t Capacity = T.capacity();
  unsigned Bits = T.validExtensionBits();
  for (uint64_t I = 1; I != FullAt2Pow10; ++I) {
    insertRun(T, Store, I, 1);
    if (T.capacity() != Capacity) {
      EXPECT_EQ(T.capacity(), Capacity * 2);
      EXPECT_EQ(T.validExtensionBits(), Bits - 1);
      Capacity = T.capacity();
      Bits = T.validExtensionBits();
    }
  }
  EXPECT_EQ(T.capacity(), size_t(1) << 10);
  EXPECT_EQ(T.validExtensionBits(), DigramTable::MinValidBits);
  EXPECT_EQ(Store.Reads, 0u);
  EXPECT_TRUE(entriesMatchKeys(T, Store));
}

TEST(DigramTableTest, RebuildingGrowthReadsEachKeyOnce) {
  // With MinValidBits left, the doubling to 2^11 rebuilds from the keys:
  // one read per entry, and all 8 bits valid again. The next four
  // doublings are key-free, and the one after rebuilds again.
  KeyStore Store;
  DigramTable T;
  insertRun(T, Store, 0, FullAt2Pow10);
  ASSERT_EQ(T.capacity(), size_t(1) << 10);
  ASSERT_EQ(Store.Reads, 0u);
  insertRun(T, Store, FullAt2Pow10, 1);
  EXPECT_EQ(T.capacity(), size_t(1) << 11);
  EXPECT_EQ(T.validExtensionBits(), 8u);
  EXPECT_EQ(Store.Reads, FullAt2Pow10);
  EXPECT_TRUE(entriesMatchKeys(T, Store));

  Store.Reads = 0;
  uint64_t Next = FullAt2Pow10 + 1;
  size_t Entries = T.size();
  while (T.capacity() != (size_t(1) << 16)) {
    Entries = T.size();
    insertRun(T, Store, Next++, 1);
    if (T.capacity() == (size_t(1) << 15)) {
      EXPECT_EQ(Store.Reads, 0u);
      EXPECT_EQ(T.validExtensionBits(), DigramTable::MinValidBits);
    }
  }
  EXPECT_EQ(T.validExtensionBits(), 8u);
  EXPECT_EQ(Store.Reads, Entries);
  EXPECT_TRUE(entriesMatchKeys(T, Store));
}

#if GTEST_HAS_DEATH_TEST
/// Fills a table to 2^10 slots, changes one indexed node's key, and
/// inserts once more: the insertion rebuilds.
void rebuildOverStaleEntry() {
  KeyStore Store;
  DigramTable T;
  insertRun(T, Store, 0, FullAt2Pow10);
  Store.Keys[FullAt2Pow10 / 2] = DigramKey{7, 7, 3};
  insertRun(T, Store, FullAt2Pow10, 1);
}

TEST(DigramTableDeathTest, StaleEntryAtRebuildIsFatal) {
  // An entry whose node's key changed after it was indexed no longer
  // hashes to its home; the rebuilding growth reads that key and dies.
  EXPECT_DEATH(rebuildOverStaleEntry(), "stale entry");
}
#endif

TEST(DigramTableTest, InsertFindErase) {
  KeyStore Store;
  DigramTable T;
  DigramKey K{1, 2, 0};
  EXPECT_EQ(T.findSlot(K, Store.reader()), DigramTable::Npos);
  NodeIdx N = Store.add(K);
  T.insert(K, N, Store.reader());
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
  // findEntry names an entry by node, home and extension bits, so it
  // tells the indexed occurrence of a digram from an unindexed twin
  // without a key read.
  KeyStore Store;
  DigramTable T;
  DigramKey K{7, 9, 2};
  NodeIdx Indexed = Store.add(K);
  NodeIdx Twin = Store.add(K);
  T.insert(K, Indexed, Store.reader());
  size_t Slot = T.findEntry(K, Indexed);
  ASSERT_NE(Slot, DigramTable::Npos);
  EXPECT_EQ(T.nodeAt(Slot), Indexed);
  EXPECT_EQ(T.findEntry(K, Twin), DigramTable::Npos);
  EXPECT_EQ(T.findEntry(DigramKey{7, 9, 0}, Indexed), DigramTable::Npos);
  EXPECT_EQ(Store.Reads, 0u);
}

TEST(DigramTableTest, KeysAreReadOnlyOnHomeAndExtensionMatch) {
  // In a 2^6-slot table with all 8 extension bits valid, a lookup reads
  // an entry's key only when the low 6 + 8 hash bits agree with the
  // query's. Find A and B that agree there, and C that shares only A's
  // home.
  constexpr uint64_t Home = 63, Match = (uint64_t(1) << 14) - 1;
  std::unordered_map<uint64_t, DigramKey> Seen;
  DigramKey A{0, 0, 0}, B{0, 0, 0};
  for (uint64_t V = 1;; ++V) {
    DigramKey K{V * 64, V * 64 + 8, 0};
    auto [It, New] = Seen.emplace(hashDigram(K) & Match, K);
    if (!New) {
      A = It->second;
      B = K;
      break;
    }
  }
  ASSERT_FALSE(A == B);
  DigramKey C{0, 0, 0};
  for (uint64_t V = 1;; ++V) {
    DigramKey K{V, V * 3, 1};
    if ((hashDigram(K) & Home) == (hashDigram(A) & Home) &&
        (hashDigram(K) & Match) != (hashDigram(A) & Match)) {
      C = K;
      break;
    }
  }

  KeyStore Store;
  DigramTable T;
  NodeIdx NA = Store.add(A);
  T.insert(A, NA, Store.reader());
  ASSERT_EQ(T.validExtensionBits(), 8u);
  // B matches A's home and extension bits: the walk reads A's key, sees
  // it differ, and misses.
  EXPECT_EQ(T.findSlot(B, Store.reader()), DigramTable::Npos);
  EXPECT_EQ(Store.Reads, 1u);
  // C shares A's home but not its extension bits: no read.
  Store.Reads = 0;
  EXPECT_EQ(T.findSlot(C, Store.reader()), DigramTable::Npos);
  EXPECT_EQ(Store.Reads, 0u);
  NodeIdx NB = Store.add(B);
  EXPECT_EQ(T.findOrInsert(B, NB, Store.reader()), DigramTable::Npos);
  EXPECT_EQ(T.nodeAt(T.findSlot(A, Store.reader())), NA);
  EXPECT_EQ(T.nodeAt(T.findSlot(B, Store.reader())), NB);

  // A key with another home meets neither entry's key.
  for (uint64_t I = 0; I != 200; ++I) {
    DigramKey K{I, I * 5, 1};
    if ((hashDigram(K) & Home) == (hashDigram(A) & Home))
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
    T.insert(KeyOf(I), Store.add(KeyOf(I)), Store.reader());
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
  EXPECT_TRUE(entriesMatchKeys(T, Store));
}

TEST(DigramTableTest, BackwardShiftDeletionCompactsProbeRuns) {
  // Keys sharing one home slot sit in a contiguous run. Erasing the head
  // shifts the rest back one slot each, leaving no tombstone: the run
  // gets shorter and every survivor stays findable.
  KeyStore Store;
  DigramTable T;
  std::vector<DigramKey> Keys = keysSharingHome(6, 6); // Capacity 64.
  for (const DigramKey &K : Keys)
    T.insert(K, Store.add(K), Store.reader());
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
    EXPECT_EQ(T.homeOf(Slot), Home) << I;
  }
  // The survivors now fill Home .. Home+4: the freed slot at the end of
  // the run is empty again.
  std::vector<bool> Used(T.capacity(), false);
  T.forEach([&](size_t Slot, NodeIdx) { Used[Slot] = true; });
  for (size_t D = 0; D != 5; ++D)
    EXPECT_TRUE(Used[(Home + D) & 63]) << D;
  EXPECT_FALSE(Used[(Home + 5) & 63]);
  EXPECT_EQ(T.size(), 5u);
}

TEST(DigramTableTest, GrowsUnderPathologicalClustering) {
  // 300 keys share a home slot in every table of up to 2^12 slots, so
  // probe runs reach the displacement cap long before the load factor
  // asks for growth. The table must grow until the keys spread, and
  // keep every key findable. findOrInsert walks the shared home's run on
  // every insertion and must treat each colliding distinct key as
  // absent; its growth crosses the rebuild at 2^10 -> 2^11.
  KeyStore Store;
  DigramTable T;
  std::vector<DigramKey> Keys = keysSharingHome(300, 12);
  for (const DigramKey &K : Keys)
    ASSERT_EQ(T.findOrInsert(K, Store.add(K), Store.reader()),
              DigramTable::Npos);
  EXPECT_EQ(T.size(), Keys.size());
  EXPECT_GT(T.capacity(), 512u) << "load factor alone stops at 512";
  EXPECT_GT(T.capacity(), size_t(1) << 12) << "the keys share a home there";
  EXPECT_LT(T.maxProbeLength(), 255u);
  for (size_t I = 0; I != Keys.size(); ++I) {
    size_t Slot = T.findSlot(Keys[I], Store.reader());
    ASSERT_NE(Slot, DigramTable::Npos) << I;
    EXPECT_EQ(T.nodeAt(Slot), static_cast<NodeIdx>(I + 1));
  }
  EXPECT_TRUE(entriesMatchKeys(T, Store));
}

TEST(DigramTableTest, ClusteredKeyFreeGrowthReadsNoKey) {
  // 300 keys share a home slot in every table of up to 2^9 slots, so
  // the displacement cap grows the table before the load factor does.
  // Every doubling up to 2^10 is key-free, so insertion reads no key,
  // and the displaced entry each growth carries is re-homed from its
  // extension bits.
  KeyStore Store;
  DigramTable T;
  std::vector<DigramKey> Keys = keysSharingHome(300, 9);
  for (const DigramKey &K : Keys)
    T.insert(K, Store.add(K), Store.reader());
  EXPECT_EQ(Store.Reads, 0u);
  EXPECT_EQ(T.size(), Keys.size());
  EXPECT_GT(T.capacity(), 512u) << "load factor alone stops at 512";
  EXPECT_GE(T.validExtensionBits(), DigramTable::MinValidBits);
  EXPECT_LT(T.maxProbeLength(), 255u);
  for (size_t I = 0; I != Keys.size(); ++I) {
    size_t Slot = T.findSlot(Keys[I], Store.reader());
    ASSERT_NE(Slot, DigramTable::Npos) << I;
    EXPECT_EQ(T.nodeAt(Slot), static_cast<NodeIdx>(I + 1));
  }
  EXPECT_TRUE(entriesMatchKeys(T, Store));
}

TEST(DigramTableTest, DisplacementCapRebuildsAndRehomesTheCarriedEntry) {
  // At 2^10 slots only MinValidBits extension bits are valid. 300 keys
  // that share a home in every table of up to 2^11 slots hit the
  // displacement cap there: the growth that follows rebuilds from the
  // keys, and the next one (the keys still share a home at 2^11) is
  // key-free again. The entry each growth carries must land on its key's
  // home.
  KeyStore Store;
  DigramTable T;
  insertRun(T, Store, uint64_t(1) << 40, FillsTo2Pow10);
  ASSERT_EQ(T.capacity(), size_t(1) << 10);
  ASSERT_EQ(T.validExtensionBits(), DigramTable::MinValidBits);
  std::vector<DigramKey> Keys = keysSharingHome(300, 11);
  for (const DigramKey &K : Keys)
    T.insert(K, Store.add(K), Store.reader());
  // Below the load factor: only the cap grew the table, past 2^11.
  ASSERT_LT((T.size() + 1) * 10, (size_t(1) << 10) * 7);
  EXPECT_EQ(T.capacity(), size_t(1) << 12);
  EXPECT_EQ(T.validExtensionBits(), 7u);
  // One rebuild: each entry indexed then, the carried one included, was
  // read once.
  EXPECT_GE(Store.Reads, FillsTo2Pow10 + 254);
  EXPECT_LE(Store.Reads, T.size());
  EXPECT_LT(T.maxProbeLength(), 255u);
  EXPECT_TRUE(entriesMatchKeys(T, Store));
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
      T.insert(K, Store.add(K), Store.reader());
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
  for (uint64_t I = 0; I != 20000; ++I) {
    DigramKey K{R.nextBelow(30000) * 64, R.nextBelow(4),
                static_cast<uint8_t>(R.nextBelow(4))};
    NodeIdx N = Store.add(K);
    size_t Slot = Split.findSlot(K, Store.reader());
    if (Slot == DigramTable::Npos)
      Split.insert(K, N, Store.reader());
    size_t FusedSlot = Fused.findOrInsert(K, N, Store.reader());
    ASSERT_EQ(FusedSlot, Slot) << I;
    if (Slot != DigramTable::Npos) {
      EXPECT_EQ(Fused.nodeAt(FusedSlot), Split.nodeAt(Slot));
    }
  }
  EXPECT_EQ(Fused.size(), Split.size());
  EXPECT_EQ(Fused.capacity(), Split.capacity());
  EXPECT_GT(Fused.capacity(), size_t(1) << 11) << "past a rebuild";
  std::vector<uint64_t> A, B;
  Split.forEach([&](size_t Slot, NodeIdx N) {
    A.insert(A.end(), {Slot, N, Split.homeOf(Slot)});
  });
  Fused.forEach([&](size_t Slot, NodeIdx N) {
    B.insert(B.end(), {Slot, N, Fused.homeOf(Slot)});
  });
  EXPECT_EQ(A, B);
}

TEST(DigramTableTest, ForEachVisitsEveryEntry) {
  KeyStore Store;
  DigramTable T;
  constexpr uint64_t N = 1000;
  insertRun(T, Store, 0, N);
  std::vector<bool> Seen(N + 1, false);
  T.forEach([&](size_t Slot, NodeIdx Node) {
    ASSERT_GE(Node, 1u);
    ASSERT_LE(Node, N);
    const DigramKey &K = Store.Keys[Node];
    EXPECT_EQ(K.V2, K.V1 + 1);
    EXPECT_TRUE(T.matchesHash(Slot, K));
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
  insertRun(T, Store, 0, 1000);
  ASSERT_EQ(T.capacity(), 2048u);
  T.release();
  EXPECT_EQ(T.size(), 0u);
  EXPECT_EQ(T.capacity(), 0u);
  EXPECT_EQ(T.maxProbeLength(), 0u);
  size_t Visited = 0;
  T.forEach([&](size_t, NodeIdx) { ++Visited; });
  EXPECT_EQ(Visited, 0u);
}

/// The process's private writable mapped bytes (VmData in
/// /proc/self/status), or -1 where the kernel does not report them.
static int64_t vmDataBytes() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  unsigned long long Kb;
  while (std::getline(In, Line))
    if (std::sscanf(Line.c_str(), "VmData: %llu kB", &Kb) == 1)
      return static_cast<int64_t>(Kb * 1024);
  return -1;
}

TEST(DigramTableMappingTest, MapsNothingUntilTheFirstInsertion) {
  // A constructed table makes no mapping: its lookups answer Npos
  // without reading a key. The first insertion maps 64 slots (one
  // page); release() unmaps them and leaves capacity 0.
  KeyStore Store;
  DigramTable T;
  EXPECT_EQ(T.capacity(), 0u);
  EXPECT_EQ(T.mappedBytes(), 0u);
  const DigramKey K{1, 2, 0};
  EXPECT_EQ(T.findSlot(K, Store.reader()), DigramTable::Npos);
  EXPECT_EQ(T.findEntry(K, 1), DigramTable::Npos);
  EXPECT_EQ(T.maxProbeLength(), 0u);
  EXPECT_EQ(Store.Reads, 0u);

  EXPECT_EQ(T.findOrInsert(K, Store.add(K), Store.reader()),
            DigramTable::Npos);
  EXPECT_EQ(T.capacity(), 64u);
  EXPECT_EQ(T.mappedBytes(), support::pageSize());
  EXPECT_EQ(T.nodeAt(T.findSlot(K, Store.reader())), 1u);

  T.release();
  EXPECT_EQ(T.capacity(), 0u);
  EXPECT_EQ(T.mappedBytes(), 0u);
  EXPECT_EQ(T.findSlot(K, Store.reader()), DigramTable::Npos);
}

TEST(DigramTableMappingTest, GrowthBypassesMalloc) {
  // Every doubling up to 2^16 slots maps its own pages: malloc's in-use
  // and mmapped-chunk bytes do not move, and the process's private
  // writable mappings (VmData) grow by exactly the final slot array once
  // the old ones are unmapped.
  KeyStore Store;
  Store.Keys.reserve(50000); // The stand-in grammar allocates up front.
  const int64_t DataBefore = vmDataBytes();
  struct mallinfo2 Before = mallinfo2();
  DigramTable T;
  uint64_t Next = 0;
  while (T.capacity() != (size_t(1) << 16))
    insertRun(T, Store, Next++, 1);
  struct mallinfo2 After = mallinfo2();
  EXPECT_EQ(After.uordblks, Before.uordblks);
  EXPECT_EQ(After.hblkhd, Before.hblkhd);
  EXPECT_EQ(T.mappedBytes(), (size_t(1) << 16) * DigramTable::SlotBytes);
  const int64_t DataAfter = vmDataBytes();
  if (DataBefore >= 0 && DataAfter >= 0) {
    EXPECT_EQ(DataAfter - DataBefore, static_cast<int64_t>(T.mappedBytes()));
  }
  EXPECT_TRUE(entriesMatchKeys(T, Store));
}

TEST(DigramTableMappingTest, DoublingsMatchAReferenceSet) {
  // Random insertions and erasures through ten doublings (2^6 -> 2^16,
  // key-free ones and the rebuilds at 2^11 and 2^16), each of which
  // gives the old array back behind its walk. After every doubling the
  // table holds exactly the reference set's keys, each at its own node.
  KeyStore Store;
  DigramTable T;
  std::unordered_set<DigramKey, DigramKeyHash> Reference;
  Rng R(29);
  auto Matches = [&] {
    if (T.size() != Reference.size())
      return false;
    for (const DigramKey &K : Reference) {
      size_t Slot = T.findSlot(K, Store.reader());
      if (Slot == DigramTable::Npos || !(Store.Keys[T.nodeAt(Slot)] == K))
        return false;
    }
    return entriesMatchKeys(T, Store);
  };
  unsigned Doublings = 0, Rebuilds = 0;
  size_t Capacity = 0;
  while (T.capacity() != (size_t(1) << 16)) {
    if (!Reference.empty() && R.nextBool(0.2)) {
      const DigramKey K = *Reference.begin();
      size_t Slot = T.findSlot(K, Store.reader());
      ASSERT_NE(Slot, DigramTable::Npos);
      T.eraseSlot(Slot);
      Reference.erase(K);
      continue;
    }
    const DigramKey K{R.nextBelow(1u << 20) * 8, R.nextBelow(1u << 20),
                      static_cast<uint8_t>(R.nextBelow(4))};
    size_t Slot = T.findOrInsert(K, Store.add(K), Store.reader());
    ASSERT_EQ(Slot == DigramTable::Npos, Reference.insert(K).second);
    if (T.capacity() != Capacity) {
      Doublings += Capacity != 0;
      Rebuilds += T.validExtensionBits() == DigramTable::ExtensionBits &&
                  Capacity != 0;
      Capacity = T.capacity();
      ASSERT_TRUE(Matches()) << "at " << Capacity << " slots";
    }
  }
  EXPECT_EQ(Doublings, 10u);
  EXPECT_EQ(Rebuilds, 2u);
  EXPECT_TRUE(Matches());
}

} // namespace
