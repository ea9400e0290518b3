//===- tests/omc_test.cpp - Object-management component unit tests -------===//

#include "ReferenceOmc.h"

#include "omc/ObjectManager.h"
#include "omc/OmcCheckpoint.h"
#include "support/Random.h"
#include "trace/Events.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <vector>

using namespace orp;
using namespace orp::omc;

//===----------------------------------------------------------------------===//
// ObjectManager
//===----------------------------------------------------------------------===//

namespace {

trace::AllocEvent makeAlloc(trace::AllocSiteId Site, uint64_t Addr,
                            uint64_t Size, uint64_t Time) {
  return trace::AllocEvent{Site, Addr, Size, Time, false};
}

} // namespace

TEST(ObjectManagerTest, GroupsFollowAllocationSites) {
  ObjectManager O;
  O.onAlloc(makeAlloc(10, 0x1000, 64, 0));
  O.onAlloc(makeAlloc(20, 0x2000, 64, 1));
  O.onAlloc(makeAlloc(10, 0x3000, 64, 2));
  EXPECT_EQ(O.numGroups(), 2u);
  auto T1 = O.translate(0x1000);
  auto T3 = O.translate(0x3000);
  ASSERT_TRUE(T1 && T3);
  EXPECT_EQ(T1->Group, T3->Group);
  EXPECT_EQ(T1->Object, 0u);
  EXPECT_EQ(T3->Object, 1u) << "serials count within the group";
  auto T2 = O.translate(0x2000);
  ASSERT_TRUE(T2);
  EXPECT_NE(T2->Group, T1->Group);
  EXPECT_EQ(T2->Object, 0u);
}

TEST(ObjectManagerTest, OffsetsAreObjectRelative) {
  ObjectManager O;
  O.onAlloc(makeAlloc(0, 0x1000, 100, 0));
  auto T = O.translate(0x1063);
  ASSERT_TRUE(T);
  EXPECT_EQ(T->Offset, 0x63u);
  EXPECT_FALSE(O.translate(0x1064)) << "one past the end misses";
  EXPECT_FALSE(O.translate(0xFFF));
}

TEST(ObjectManagerTest, FreeRetiresObject) {
  ObjectManager O;
  O.onAlloc(makeAlloc(0, 0x1000, 64, 5));
  O.onFree(trace::FreeEvent{0x1000, 9});
  EXPECT_FALSE(O.translate(0x1000));
  ASSERT_EQ(O.records().size(), 1u);
  EXPECT_EQ(O.records()[0].AllocTime, 5u);
  EXPECT_EQ(O.records()[0].FreeTime, 9u);
  EXPECT_EQ(O.numLiveObjects(), 0u);
}

TEST(ObjectManagerTest, AddressReuseCreatesDistinctObjects) {
  // The key property object-relativity provides: a reused raw address
  // maps to a new (group, object) identity.
  ObjectManager O;
  O.onAlloc(makeAlloc(0, 0x1000, 64, 0));
  O.onFree(trace::FreeEvent{0x1000, 1});
  O.onAlloc(makeAlloc(1, 0x1000, 32, 2));
  auto T = O.translate(0x1010);
  ASSERT_TRUE(T);
  EXPECT_EQ(T->Group, O.groupForSite(1));
  EXPECT_EQ(O.records().size(), 2u);
  EXPECT_NE(O.records()[0].Group, O.records()[1].Group);
}

TEST(ObjectManagerTest, UnknownFreeIsCountedNotFatal) {
  ObjectManager O;
  O.onFree(trace::FreeEvent{0xDEAD, 0});
  EXPECT_EQ(O.stats().UnknownFrees, 1u);
  // Free of an interior address is also unknown (frees must hit the
  // object start).
  O.onAlloc(makeAlloc(0, 0x1000, 64, 0));
  O.onFree(trace::FreeEvent{0x1008, 1});
  EXPECT_EQ(O.stats().UnknownFrees, 2u);
  EXPECT_TRUE(O.translate(0x1008));
}

TEST(ObjectManagerTest, StatsCountTranslationsAndMisses) {
  ObjectManager O;
  O.onAlloc(makeAlloc(0, 0x1000, 64, 0));
  O.translate(0x1000);
  O.translate(0x1001);
  O.translate(0x9999);
  EXPECT_EQ(O.stats().Translations, 2u);
  EXPECT_EQ(O.stats().Misses, 1u);
}

TEST(ObjectManagerTest, SiteGroupRoundTrip) {
  ObjectManager O;
  GroupId G = O.groupForSite(42);
  EXPECT_EQ(O.siteForGroup(G), 42u);
  EXPECT_EQ(O.groupForSite(42), G) << "idempotent";
  EXPECT_FALSE(O.lookupGroupForSite(77).has_value());
  EXPECT_EQ(*O.lookupGroupForSite(42), G);
}

TEST(ObjectManagerTest, ManyLiveObjectsTranslateCorrectly) {
  ObjectManager O;
  Rng R(3);
  std::vector<std::pair<uint64_t, uint64_t>> Objects; // (addr, size)
  uint64_t Cursor = 0x10000;
  for (int I = 0; I != 5000; ++I) {
    uint64_t Size = 8 + R.nextBelow(120);
    O.onAlloc(makeAlloc(static_cast<trace::AllocSiteId>(I % 7), Cursor,
                        Size, static_cast<uint64_t>(I)));
    Objects.emplace_back(Cursor, Size);
    Cursor += Size + R.nextBelow(64);
  }
  for (auto &[Addr, Size] : Objects) {
    auto T = O.translate(Addr + Size - 1);
    ASSERT_TRUE(T);
    EXPECT_EQ(T->Offset, Size - 1);
  }
  EXPECT_EQ(O.numGroups(), 7u);
  EXPECT_EQ(O.numLiveObjects(), 5000u);
}

//===----------------------------------------------------------------------===//
// Differential test against the linear-scan reference OMC
//===----------------------------------------------------------------------===//

namespace {

/// Sites of the differential stream: heap objects come from the sites
/// below kStaticSite, of which the last two are split pools.
constexpr trace::AllocSiteId kPoolSiteA = 6, kPoolSiteB = 7, kStaticSite = 8;

/// Drives an ObjectManager and a ReferenceOmc through the same event
/// stream and asserts that they agree on every answer.
class OmcDifferential {
public:
  OmcDifferential() {
    Omc.splitPoolSite(kPoolSiteA, 16);
    Ref.splitPoolSite(kPoolSiteA, 16);
    Omc.splitPoolSite(kPoolSiteB, 24);
    Ref.splitPoolSite(kPoolSiteB, 24);
  }

  /// Offers \p Event to both; registers it when both admit it.
  void alloc(const trace::AllocEvent &Event) {
    const char *Want = Ref.allocError(Event);
    const char *Got = Omc.allocError(Event);
    ASSERT_EQ(std::string(Got ? Got : "admitted"),
              std::string(Want ? Want : "admitted"))
        << "allocError at 0x" << std::hex << Event.Addr << " size 0x"
        << Event.Size;
    if (Want) {
      ++Rejected[std::string(Want)];
      return;
    }
    Omc.onAlloc(Event);
    Ref.onAlloc(Event);
    Bases.push_back(Event.Addr);
    Sizes.push_back(Event.Size);
  }

  void free(uint64_t Addr) {
    Omc.onFree(trace::FreeEvent{Addr, ++Time});
    Ref.onFree(trace::FreeEvent{Addr, Time});
  }

  /// Translates \p Addr through translate(Addr, Instr) when \p Instr is
  /// set, else through translate(Addr), and compares with the reference.
  void translate(uint64_t Addr, std::optional<trace::InstrId> Instr) {
    std::optional<Translation> Got =
        Instr ? Omc.translate(Addr, *Instr) : Omc.translate(Addr);
    std::optional<Translation> Want = Ref.translate(Addr);
    ASSERT_EQ(Got.has_value(), Want.has_value())
        << "translate(0x" << std::hex << Addr << ") hit/miss";
    if (!Want)
      return;
    EXPECT_EQ(Got->Group, Want->Group);
    EXPECT_EQ(Got->Object, Want->Object);
    EXPECT_EQ(Got->Offset, Want->Offset);
    ASSERT_EQ(Got->ObjectId, Want->ObjectId)
        << "translate(0x" << std::hex << Addr << ")";
  }

  /// Compares the counters and the live-object count.
  void compareState() {
    ASSERT_EQ(Omc.numLiveObjects(), Ref.numLiveObjects());
    ASSERT_EQ(Omc.stats().Translations, Ref.stats().Translations);
    ASSERT_EQ(Omc.stats().Misses, Ref.stats().Misses);
    ASSERT_EQ(Omc.stats().UnknownFrees, Ref.stats().UnknownFrees);
  }

  /// Replaces the OMC with one restored from its checkpoint. The restored
  /// OMC's counters start at zero, and so do the reference's.
  void checkpointAndRestore() {
    std::vector<uint8_t> Image;
    OmcCheckpoint::serialize(Omc, Image);
    ObjectManager Restored;
    size_t Pos = 0;
    std::string Err;
    ASSERT_TRUE(OmcCheckpoint::restore(Image.data(), Image.size(), Pos,
                                       Restored, Err))
        << Err;
    ASSERT_EQ(Pos, Image.size());
    Omc = std::move(Restored);
    Ref.stats() = ReferenceOmc::Stats{};
  }

  ObjectManager Omc;
  ReferenceOmc Ref;
  uint64_t Time = 0;
  /// Base and size of every admitted object, live or freed.
  std::vector<uint64_t> Bases, Sizes;
  /// Rejected allocations by reason.
  std::map<std::string, size_t> Rejected;
};

} // namespace

/// A randomized event stream over a small heap, so lifetimes overlap,
/// addresses are reused and many allocations collide with live objects.
/// Every allocError, translate(Addr), translate(Addr, Instr), the live
/// count and the Translations/Misses/UnknownFrees counters must equal the
/// linear-scan reference's, before and after a mid-stream checkpoint.
class OmcDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OmcDifferentialTest, MatchesLinearScanReference) {
  constexpr uint64_t kHeap = 0x100000, kHeapSpan = 0x2000;
  constexpr uint64_t kStatics = 0x10000;
  constexpr int kSteps = 4000;
  constexpr trace::InstrId kInstrs = 6;
  Rng R(GetParam());
  OmcDifferential D;
  uint64_t NextStatic = kStatics;

  // One of the 24 most recently admitted objects.
  auto Recent = [&]() -> size_t {
    size_t N = D.Bases.size();
    return N - 1 - R.nextBelow(std::min<size_t>(N, 24));
  };
  // An address near a recent object: its base, an interior byte, its
  // last byte or one past its end.
  auto NearRecent = [&]() -> uint64_t {
    size_t I = Recent();
    switch (R.nextBelow(4)) {
    case 0:
      return D.Bases[I];
    case 1:
      return D.Bases[I] + R.nextBelow(D.Sizes[I]);
    case 2:
      return D.Bases[I] + D.Sizes[I] - 1;
    default:
      return D.Bases[I] + D.Sizes[I];
    }
  };
  auto AnyInstr = [&]() -> std::optional<trace::InstrId> {
    if (R.nextBool(0.3))
      return std::nullopt;
    return static_cast<trace::InstrId>(R.nextBelow(kInstrs));
  };

  for (int Step = 0; Step != kSteps; ++Step) {
    if (Step == kSteps / 2) {
      D.checkpointAndRestore();
      ASSERT_FALSE(HasFatalFailure());
    }
    double Dice = R.nextDouble();
    if (Dice < 0.30 || D.Bases.empty()) {
      // Heap allocation: anywhere in the heap (half start inside or
      // right after a recent object), at a plain or a pool site.
      uint64_t Addr = !D.Bases.empty() && R.nextBool(0.5)
                          ? NearRecent()
                          : kHeap + R.nextBelow(kHeapSpan / 8) * 8;
      D.alloc(trace::AllocEvent{
          static_cast<trace::AllocSiteId>(R.nextBelow(kStaticSite)), Addr,
          1 + R.nextBelow(200), ++D.Time, false});
    } else if (Dice < 0.34) {
      // A static object: its own region, never freed.
      D.alloc(trace::AllocEvent{kStaticSite, NextStatic, 0x20, ++D.Time, true});
      NextStatic += 0x40;
    } else if (Dice < 0.37) {
      // Ranges no OMC may admit: empty, 2^63 bytes or more, wrapping.
      switch (R.nextBelow(3)) {
      case 0:
        D.alloc(trace::AllocEvent{0, kHeap, 0, ++D.Time, false});
        break;
      case 1:
        D.alloc(trace::AllocEvent{0, kHeap,
                                  (uint64_t(1) << 63) + R.nextBelow(9),
                                  ++D.Time, false});
        break;
      default:
        D.alloc(trace::AllocEvent{0, ~uint64_t(0) - R.nextBelow(16),
                                  1 + R.nextBelow(32), ++D.Time, false});
        break;
      }
    } else if (Dice < 0.55) {
      // A free: of a recent object (live or already freed), of an
      // interior byte, or of a random address. The freed range is
      // translated by the same instruction before and after, so a cache
      // line that survives the free would answer for a dead object.
      uint64_t Addr = R.nextBool(0.7) ? D.Bases[Recent()] : NearRecent();
      if (R.nextBool(0.1))
        Addr = kHeap + R.nextBelow(kHeapSpan);
      auto Instr = static_cast<trace::InstrId>(R.nextBelow(kInstrs));
      D.translate(Addr, Instr);
      D.free(Addr);
      D.translate(Addr, Instr);
    } else {
      uint64_t Addr;
      if (R.nextBool(0.6))
        Addr = NearRecent();
      else if (R.nextBool(0.8))
        Addr = kHeap + R.nextBelow(kHeapSpan + 0x100);
      else
        Addr = kStatics + R.nextBelow(NextStatic - kStatics + 0x40);
      D.translate(Addr, AnyInstr());
    }
    D.compareState();
    ASSERT_FALSE(HasFailure()) << "step " << Step;
  }

  // The stream reached every tier and every rejection reason.
  EXPECT_GT(D.Omc.stats().MruHits, 0u);
  EXPECT_GT(D.Omc.stats().SharedCacheHits, 0u);
  EXPECT_GT(D.Omc.stats().UnknownFrees, 0u);
  EXPECT_EQ(D.Omc.stats().PageHits, 0u);
  EXPECT_EQ(D.Rejected.size(), 4u);
  EXPECT_GT(D.Rejected["allocation overlaps a live object"], 100u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OmcDifferentialTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));
