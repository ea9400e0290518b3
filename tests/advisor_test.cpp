//===- tests/advisor_test.cpp - Advisor subsystem tests ------------------===//
//
// The profile -> decision -> payoff loop: classifier ranking goldens,
// the hardened .orpa round trip (including a full corruption-rejection
// sweep), the tiered-placement payoff (advised strictly beats the
// unadvised first-touch baseline on ListTraversal and the mcf
// analogue), artifact byte-identity with the advisor attached, and the
// telemetry bridge.
//
//===----------------------------------------------------------------------===//

#include "advisor/AdvisorReport.h"
#include "advisor/HotColdClassifier.h"
#include "advisor/Telemetry.h"
#include "advisor/TieredReplay.h"
#include "analysis/Stride.h"
#include "core/ProfilingSession.h"
#include "leap/Leap.h"
#include "leap/LeapProfileData.h"
#include "support/Checksum.h"
#include "support/Endian.h"
#include "support/VarInt.h"
#include "telemetry/Registry.h"
#include "traceio/TraceReader.h"
#include "traceio/TraceWriter.h"
#include "whomp/OmsgArchive.h"
#include "whomp/Whomp.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

using namespace orp;
using namespace orp::advisor;

namespace {

std::string tempPath(const std::string &Name) {
  return testing::TempDir() + "orp_advisor_" + Name;
}

/// Profiles \p WorkloadName live (WHOMP + LEAP + OMC) and returns the
/// detached artifacts; optionally records the raw trace to \p TracePath
/// and attaches \p Extra as an additional tuple consumer.
void profileWorkload(const std::string &WorkloadName,
                     leap::LeapProfileData &Leap, whomp::OmsgArchive &Omsg,
                     const std::string &TracePath = "",
                     core::OrTupleConsumer *Extra = nullptr) {
  core::ProfilingSession Session(memsim::AllocPolicy::FirstFit, /*Seed=*/7);
  std::unique_ptr<traceio::TraceWriter> Writer;
  if (!TracePath.empty()) {
    Writer = std::make_unique<traceio::TraceWriter>(
        TracePath, Session.registry(), memsim::AllocPolicy::FirstFit,
        /*Seed=*/7);
    ASSERT_TRUE(Writer->ok()) << Writer->error();
    Session.addRawSink(Writer.get());
  }
  whomp::WhompProfiler Whomp;
  leap::LeapProfiler LeapProf;
  Session.addConsumer(&Whomp);
  Session.addConsumer(&LeapProf);
  if (Extra)
    Session.addConsumer(Extra);
  auto W = workloads::createWorkloadByName(WorkloadName);
  ASSERT_TRUE(W);
  workloads::WorkloadConfig Config;
  W->run(Session.memory(), Session.registry(), Config);
  Session.finish();
  if (Writer) {
    ASSERT_TRUE(Writer->close()) << Writer->error();
  }
  Leap = leap::LeapProfileData::fromProfiler(LeapProf);
  Omsg = whomp::OmsgArchive::build(Whomp, &Session.omc());
}

/// The detached artifacts of one live profile.
struct Profiles {
  leap::LeapProfileData Leap;
  whomp::OmsgArchive Omsg;
};

/// profileWorkload(Name), made once per test process for the tests that
/// only read it: profiling is most of this binary's run time, above all
/// in checked builds.
const Profiles &sharedProfiles(const std::string &Name) {
  static std::map<std::string, Profiles> Cache;
  auto It = Cache.find(Name);
  if (It == Cache.end()) {
    Profiles P;
    profileWorkload(Name, P.Leap, P.Omsg);
    It = Cache.emplace(Name, std::move(P)).first;
  }
  return It->second;
}

/// The ordered reference the flat counting table is checked against.
using PairMap = std::map<OffsetPairKey, uint64_t>;

PairMap toMap(const OffsetPairCounts &Counts) {
  PairMap M;
  Counts.forEach([&](const OffsetPairKey &Key, uint64_t Count) {
    EXPECT_TRUE(M.emplace(Key, Count).second) << "pair listed twice";
  });
  EXPECT_EQ(M.size(), Counts.size());
  return M;
}

} // namespace

//===----------------------------------------------------------------------===//
// Ranking order
//===----------------------------------------------------------------------===//

TEST(PlacementRankTest, DensityThenAccessesThenFootprintThenGroup) {
  PlacementAdvice Dense{0, 1000, 10, 1, 0, true, false};
  PlacementAdvice Sparse{1, 1000, 1000, 1, 0, false, false};
  EXPECT_TRUE(placementRankBefore(Dense, Sparse));
  EXPECT_FALSE(placementRankBefore(Sparse, Dense));

  // Equal density (1/1): more total accesses first.
  PlacementAdvice Big{2, 500, 500, 1, 0, true, false};
  PlacementAdvice Small{3, 100, 100, 1, 0, true, false};
  EXPECT_TRUE(placementRankBefore(Big, Small));

  // Zero footprint with accesses is infinitely dense.
  PlacementAdvice Inf{4, 5, 0, 0, 0, true, false};
  EXPECT_TRUE(placementRankBefore(Inf, Dense));
  EXPECT_FALSE(placementRankBefore(Dense, Inf));

  // Full tie: lower group id first — a strict total order.
  PlacementAdvice A{5, 100, 100, 1, 0, true, false};
  PlacementAdvice B{6, 100, 100, 1, 0, true, false};
  EXPECT_TRUE(placementRankBefore(A, B));
  EXPECT_FALSE(placementRankBefore(B, A));
  EXPECT_FALSE(placementRankBefore(A, A));
}

TEST(PlacementRankTest, ExactDensityComparisonBeyondDoublePrecision) {
  // 2^60+1 accesses over 2^60 bytes vs 1-over-1: indistinguishable in
  // double, distinct under cross-multiplication.
  uint64_t Huge = 1ULL << 60;
  PlacementAdvice A{0, Huge + 1, Huge, 1, 0, true, false};
  PlacementAdvice B{1, 1, 1, 1, 0, true, false};
  EXPECT_TRUE(placementRankBefore(A, B));
  EXPECT_FALSE(placementRankBefore(B, A));
}

TEST(LayoutRankTest, PairCountThenKey) {
  LayoutAdvice Hot{0, 0, 8, 100};
  LayoutAdvice Cold{0, 8, 16, 2};
  EXPECT_TRUE(layoutRankBefore(Hot, Cold));
  LayoutAdvice SameCount{1, 0, 8, 100};
  EXPECT_TRUE(layoutRankBefore(Hot, SameCount)) << "ties break by group";
}

//===----------------------------------------------------------------------===//
// The flat offset-pair counting table
//===----------------------------------------------------------------------===//

TEST(OffsetPairCountsTest, CountsSurviveSeveralDoublings) {
  // 6,000 distinct pairs at load <= 3/4 grow the table from 1,024 slots
  // through three doublings; pair K is added (K % 5) + 1 times, spread
  // over rounds so each doubling moves partly counted entries.
  constexpr uint64_t kPairs = 6000;
  OffsetPairCounts Counts;
  PairMap Reference;
  for (uint64_t Round = 0; Round != 5; ++Round)
    for (uint64_t K = 0; K != kPairs; ++K) {
      if (K % 5 < Round)
        continue;
      omc::GroupId Group = static_cast<omc::GroupId>(K % 3);
      uint64_t A = K * 8, B = K * 8 + 4;
      // Either argument order names the same canonical pair.
      if (Round % 2)
        Counts.add(Group, B, A);
      else
        Counts.add(Group, A, B);
      ++Reference[OffsetPairKey{Group, A, B}];
    }
  EXPECT_EQ(Counts.size(), kPairs);
  EXPECT_EQ(toMap(Counts), Reference);
  for (const auto &[Key, Count] : Reference)
    ASSERT_EQ(Counts.count(Key), Count);
  EXPECT_EQ(Counts.count(OffsetPairKey{0, 4, 8}), 0u) << "absent pair";
}

TEST(OffsetPairCountsTest, WideOffsetsAndGroupZero) {
  // Group 0 with offset 0 is an all-but-zero slot: only the count marks
  // it used. Offsets that differ only above bit 32 stay distinct pairs.
  OffsetPairCounts Counts;
  const uint64_t Wide = 1ULL << 32;
  Counts.add(0, 0, 8);
  Counts.add(0, 8, 0);
  Counts.add(0, Wide, Wide + 8);
  Counts.add(0, ~0ULL, 0);
  Counts.add(~omc::GroupId(0), 8, Wide + 8);
  EXPECT_EQ(Counts.size(), 4u);
  EXPECT_EQ(Counts.count(OffsetPairKey{0, 0, 8}), 2u);
  EXPECT_EQ(Counts.count(OffsetPairKey{0, Wide, Wide + 8}), 1u);
  EXPECT_EQ(Counts.count(OffsetPairKey{0, 0, ~0ULL}), 1u);
  EXPECT_EQ(Counts.count(OffsetPairKey{~omc::GroupId(0), 8, Wide + 8}), 1u);
  EXPECT_EQ(Counts.count(OffsetPairKey{0, 8, Wide + 8}), 0u);
  EXPECT_EQ(Counts.count(OffsetPairKey{1, 0, 8}), 0u);
  EXPECT_EQ(OffsetPairCounts().count(OffsetPairKey{0, 0, 8}), 0u);
}

TEST(OffsetPairCountsTest, EqualityIgnoresEntryOrder) {
  // The same pairs added forwards and backwards land in different slots
  // once probes collide; the tables still compare equal.
  constexpr uint64_t kPairs = 2000;
  OffsetPairCounts Forward, Backward;
  for (uint64_t K = 0; K != kPairs; ++K)
    for (uint64_t R = 0; R <= K % 3; ++R)
      Forward.add(1, K, K + 1);
  for (uint64_t K = kPairs; K-- != 0;)
    for (uint64_t R = 0; R <= K % 3; ++R)
      Backward.add(1, K + 1, K);
  std::vector<OffsetPairKey> ForwardOrder, BackwardOrder;
  Forward.forEach([&](const OffsetPairKey &Key, uint64_t) {
    ForwardOrder.push_back(Key);
  });
  Backward.forEach([&](const OffsetPairKey &Key, uint64_t) {
    BackwardOrder.push_back(Key);
  });
  EXPECT_TRUE(ForwardOrder != BackwardOrder) << "same slot order";
  EXPECT_TRUE(Forward == Backward);
  EXPECT_TRUE(OffsetPairCounts() == OffsetPairCounts());

  Backward.add(1, 0, 1);
  EXPECT_TRUE(Forward != Backward) << "one count differs";
  Forward.add(1, 0, 1);
  Forward.add(2, 0, 1);
  EXPECT_TRUE(Forward != Backward) << "one pair more";
  Backward.add(2, 0, 1);
  EXPECT_TRUE(Forward == Backward);

  // A moved-from table is empty and usable.
  OffsetPairCounts Moved = std::move(Forward);
  EXPECT_TRUE(Moved == Backward);
  EXPECT_TRUE(Forward.empty()); // NOLINT(bugprone-use-after-move)
  Forward.add(3, 0, 1);
  EXPECT_EQ(Forward.size(), 1u);
}

TEST(OffsetPairCountsTest, RankLayoutAdviceAtEachMinPairCount) {
  // Counts 1, 2, 2 and 3; the two pairs seen twice tie on count and
  // rank by group.
  const std::vector<LayoutAdvice> All = {
      {3, 0, 8, 3}, {0, 32, 40, 2}, {1, 16, 24, 2}, {2, 0, 8, 1}};
  OffsetPairCounts Counts;
  for (auto It = All.rbegin(); It != All.rend(); ++It)
    for (uint64_t I = 0; I != It->PairCount; ++I)
      Counts.add(It->Group, It->OffB, It->OffA);

  ClassifierOptions Opts;
  // Thresholds 0 and 1 keep every pair and none of the empty slots.
  Opts.MinPairCount = 0;
  EXPECT_EQ(rankLayoutAdvice(Counts, Opts), All);
  Opts.MinPairCount = 1;
  EXPECT_EQ(rankLayoutAdvice(Counts, Opts), All);
  Opts.MinPairCount = 2;
  EXPECT_EQ(rankLayoutAdvice(Counts, Opts),
            std::vector<LayoutAdvice>(All.begin(), All.begin() + 3));
  Opts.MaxLayoutEntries = 2;
  EXPECT_EQ(rankLayoutAdvice(Counts, Opts),
            std::vector<LayoutAdvice>(All.begin(), All.begin() + 2));
  EXPECT_TRUE(rankLayoutAdvice(OffsetPairCounts(), Opts).empty());
}

//===----------------------------------------------------------------------===//
// Classifier goldens on the pinned workload
//===----------------------------------------------------------------------===//

TEST(HotColdClassifierTest, ListTraversalGolden) {
  const Profiles &P = sharedProfiles("list-traversal");
  HotColdClassifier Classifier;
  AdvisorReport Report = Classifier.classify(P.Leap, P.Omsg);

  // ListTraversal has exactly two heap groups: the traversed list
  // nodes (hot, uniform 24-byte objects -> pool candidate) and the
  // never-accessed noise allocations (cold).
  ASSERT_EQ(Report.Placement.size(), 2u);
  const PlacementAdvice &Nodes = Report.Placement[0];
  const PlacementAdvice &Noise = Report.Placement[1];
  EXPECT_TRUE(Nodes.Hot);
  EXPECT_TRUE(Nodes.PoolCandidate) << "uniform, mostly-freed nodes";
  EXPECT_GT(Nodes.AccessCount, 0u);
  EXPECT_EQ(Nodes.ObjectCount, 64u);
  EXPECT_EQ(Nodes.FootprintBytes, 64u * 24u);
  EXPECT_FALSE(Noise.Hot) << "noise objects are never accessed";
  EXPECT_EQ(Noise.AccessCount, 0u);
  EXPECT_EQ(Report.hotGroupCount(), 1u);

  // Pointer chasing has no dominant stride: no prefetch advice.
  EXPECT_TRUE(Report.Prefetch.empty());
}

TEST(HotColdClassifierTest, AdviceBytesArePinned) {
  // CRC-32 and length of the serialized report of every workload: how
  // classify counts and stores its offset pairs must never show in the
  // advice.
  struct Pin {
    const char *Name;
    uint32_t Crc;
    size_t Bytes;
  };
  const Pin Pins[] = {
      {"164.gzip-a", 0x80722c4eu, 480},
      {"175.vpr-a", 0x7d035e79u, 603},
      {"181.mcf-a", 0x4440e13du, 504},
      {"186.crafty-a", 0x282bec41u, 526},
      {"197.parser-a", 0x72f92bcdu, 479},
      {"256.bzip2-a", 0x13ca029cu, 422},
      {"300.twolf-a", 0xa5bda3c3u, 415},
      {"list-traversal", 0xcfcab60bu, 34},
  };
  for (const Pin &P : Pins) {
    const Profiles &Profile = sharedProfiles(P.Name);
    std::vector<uint8_t> Bytes =
        HotColdClassifier().classify(Profile.Leap, Profile.Omsg).serialize();
    EXPECT_EQ(Bytes.size(), P.Bytes) << P.Name;
    EXPECT_EQ(crc32(Bytes), P.Crc) << P.Name;
  }
}

TEST(HotColdClassifierTest, ScannerMatchesArchiveRecovery) {
  // The streaming OffsetPairScanner and the offline recovery from the
  // archive's dimension streams must agree exactly.
  OffsetPairScanner Scanner;
  leap::LeapProfileData Leap;
  whomp::OmsgArchive Omsg;
  profileWorkload("300.twolf-a", Leap, Omsg, "", &Scanner);
  OffsetPairCounts FromArchive = offsetPairsFromArchive(Omsg);
  EXPECT_FALSE(FromArchive.empty());
  EXPECT_EQ(toMap(FromArchive), toMap(Scanner.pairCounts()));
  EXPECT_TRUE(FromArchive == Scanner.pairCounts());
}

TEST(HotColdClassifierTest, LockstepCursorsMatchExpandedStreams) {
  // offsetPairsFromArchive walks three cursors in lockstep; the reference
  // recomputes the pairs from fully expanded dimension vectors, on both
  // the freshly built archive and its deserialized copy.
  for (const char *Name :
       {"list-traversal", "175.vpr-a", "181.mcf-a", "197.parser-a"}) {
    const whomp::OmsgArchive &Built = sharedProfiles(Name).Omsg;
    whomp::OmsgArchive Omsg;
    std::string Err;
    ASSERT_TRUE(whomp::OmsgArchive::deserialize(Built.serialize(), Omsg, Err))
        << Err;
    ASSERT_EQ(Omsg.numDimensions(), 4u) << Name;
    std::vector<uint64_t> Groups = Omsg.expandDimension(1);
    std::vector<uint64_t> Objects = Omsg.expandDimension(2);
    std::vector<uint64_t> Offsets = Omsg.expandDimension(3);
    ASSERT_EQ(Groups.size(), Omsg.accessCount()) << Name;
    ASSERT_EQ(Objects.size(), Omsg.accessCount()) << Name;
    ASSERT_EQ(Offsets.size(), Omsg.accessCount()) << Name;
    PairMap Reference;
    for (size_t I = 1; I < Groups.size(); ++I) {
      if (Groups[I] != Groups[I - 1] || Objects[I] != Objects[I - 1] ||
          Offsets[I] == Offsets[I - 1])
        continue;
      uint64_t A = std::min(Offsets[I - 1], Offsets[I]);
      uint64_t B = std::max(Offsets[I - 1], Offsets[I]);
      ++Reference[OffsetPairKey{static_cast<omc::GroupId>(Groups[I]), A, B}];
    }
    EXPECT_FALSE(Reference.empty()) << Name;
    EXPECT_EQ(toMap(offsetPairsFromArchive(Omsg)), Reference) << Name;
    EXPECT_EQ(toMap(offsetPairsFromArchive(Built)), Reference) << Name;
  }
}

TEST(HotColdClassifierTest, PrefetchMatchesLiveStrideAnalysis) {
  core::ProfilingSession Session;
  leap::LeapProfiler LeapProf;
  Session.addConsumer(&LeapProf);
  auto W = workloads::createWorkloadByName("164.gzip-a");
  ASSERT_TRUE(W);
  workloads::WorkloadConfig Config;
  W->run(Session.memory(), Session.registry(), Config);
  Session.finish();

  analysis::StrideMap Live = analysis::findStronglyStrided(LeapProf);
  std::vector<PrefetchAdvice> Detached = prefetchAdviceFromProfile(
      leap::LeapProfileData::fromProfiler(LeapProf), ClassifierOptions());
  ASSERT_FALSE(Detached.empty());
  for (const PrefetchAdvice &P : Detached) {
    auto It = Live.find(P.Instr);
    ASSERT_NE(It, Live.end()) << "instr " << P.Instr;
    EXPECT_EQ(P.Stride, It->second.Stride);
    EXPECT_EQ(P.Distance, choosePrefetchDistance(P.Stride));
    EXPECT_GE(P.SharePermille, 700u);
    EXPECT_LE(P.SharePermille, 1000u);
  }
  // Every detached candidate is a live strongly-strided *load*; the
  // live map may additionally contain stores.
  for (const auto &[Instr, Info] : Live) {
    auto Summary = leap::LeapProfileData::fromProfiler(LeapProf)
                       .instructions()
                       .at(Instr);
    bool IsLoad = !Summary.isStore();
    bool InDetached = false;
    for (const PrefetchAdvice &P : Detached)
      InDetached |= P.Instr == Instr;
    EXPECT_EQ(InDetached, IsLoad) << "instr " << Instr;
  }
}

TEST(ChoosePrefetchDistanceTest, ClampsToRange) {
  EXPECT_EQ(choosePrefetchDistance(4), 64u);
  EXPECT_EQ(choosePrefetchDistance(-4), 64u);
  EXPECT_EQ(choosePrefetchDistance(8), 32u);
  EXPECT_EQ(choosePrefetchDistance(256), 2u);
  EXPECT_EQ(choosePrefetchDistance(100000), 2u);
  EXPECT_EQ(choosePrefetchDistance(0), 0u);
}

//===----------------------------------------------------------------------===//
// The .orpa artifact
//===----------------------------------------------------------------------===//

namespace {

AdvisorReport listTraversalReport() {
  const Profiles &P = sharedProfiles("list-traversal");
  return HotColdClassifier().classify(P.Leap, P.Omsg);
}

} // namespace

TEST(AdvisorReportTest, RoundTripIsExactAndCanonical) {
  AdvisorReport Report = listTraversalReport();
  std::vector<uint8_t> Bytes = Report.serialize();
  AdvisorReport Parsed;
  std::string Err;
  ASSERT_TRUE(AdvisorReport::deserialize(Bytes, Parsed, Err)) << Err;
  EXPECT_EQ(Parsed, Report);
  // serialize(deserialize(x)) == x: the canonical-serialization
  // fixpoint the fuzzer also enforces.
  EXPECT_EQ(Parsed.serialize(), Bytes);
}

TEST(AdvisorReportTest, EmptyReportRoundTrips) {
  AdvisorReport Empty;
  std::vector<uint8_t> Bytes = Empty.serialize();
  AdvisorReport Parsed;
  std::string Err;
  ASSERT_TRUE(AdvisorReport::deserialize(Bytes, Parsed, Err)) << Err;
  EXPECT_EQ(Parsed, Empty);
}

TEST(AdvisorReportTest, EveryTruncationIsRejected) {
  std::vector<uint8_t> Bytes = listTraversalReport().serialize();
  for (size_t Len = 0; Len != Bytes.size(); ++Len) {
    std::vector<uint8_t> Cut(Bytes.begin(), Bytes.begin() + Len);
    AdvisorReport Out;
    std::string Err;
    EXPECT_FALSE(AdvisorReport::deserialize(Cut, Out, Err))
        << "prefix of length " << Len << " parsed";
  }
}

TEST(AdvisorReportTest, EveryByteFlipIsRejected) {
  std::vector<uint8_t> Bytes = listTraversalReport().serialize();
  // Any single-bit corruption anywhere — header fields or payload —
  // must be caught (magic/version checks up front, CRC for the rest).
  for (size_t I = 0; I != Bytes.size(); ++I) {
    std::vector<uint8_t> Bad = Bytes;
    Bad[I] ^= 0x01;
    AdvisorReport Out;
    std::string Err;
    EXPECT_FALSE(AdvisorReport::deserialize(Bad, Out, Err))
        << "flip at byte " << I << " parsed";
  }
}

TEST(AdvisorReportTest, SerializeReestablishesRankOrder) {
  AdvisorReport Report;
  Report.Placement.push_back({0, 10, 10, 1, 0, true, false});
  Report.Placement.push_back({1, 999, 1, 1, 0, true, false});
  std::vector<uint8_t> Bytes = Report.serialize();
  AdvisorReport Parsed;
  std::string Err;
  ASSERT_TRUE(AdvisorReport::deserialize(Bytes, Parsed, Err)) << Err;
  // serialize() ranked group 1 (denser) first.
  ASSERT_EQ(Parsed.Placement.size(), 2u);
  EXPECT_EQ(Parsed.Placement[0].Group, 1u);
}

namespace {

/// Frames \p Payload as a .orpa image with a correct CRC — the forgery
/// helper: structurally arbitrary payloads that pass the checksum.
std::vector<uint8_t> frameAsOrpa(const std::vector<uint8_t> &Payload) {
  std::vector<uint8_t> Out = {'O', 'R', 'P', 'A',
                              AdvisorReport::kFormatVersion};
  appendLE32(crc32(Payload), Out);
  Out.insert(Out.end(), Payload.begin(), Payload.end());
  return Out;
}

void appendPlacementEntry(std::vector<uint8_t> &P, uint64_t Group,
                          uint64_t Access, uint64_t Foot, uint64_t Objects,
                          uint64_t Life, uint8_t Flags) {
  encodeULEB128(Group, P);
  encodeULEB128(Access, P);
  encodeULEB128(Foot, P);
  encodeULEB128(Objects, P);
  encodeULEB128(Life, P);
  P.push_back(Flags);
}

} // namespace

TEST(AdvisorReportTest, ForgedNonCanonicalOrderIsRejected) {
  // A hand-framed payload with a correct CRC but placement entries out
  // of rank order: the sparse group before the dense one.
  std::vector<uint8_t> P;
  encodeULEB128(2, P);
  appendPlacementEntry(P, /*Group=*/0, /*Access=*/10, /*Foot=*/10, 1, 0,
                       /*Flags=*/1);
  appendPlacementEntry(P, /*Group=*/1, /*Access=*/999, /*Foot=*/1, 1, 0,
                       /*Flags=*/1);
  encodeULEB128(0, P); // layout count
  encodeULEB128(0, P); // prefetch count
  AdvisorReport Out;
  std::string Err;
  EXPECT_FALSE(AdvisorReport::deserialize(frameAsOrpa(P), Out, Err));
  EXPECT_NE(Err.find("rank order"), std::string::npos) << Err;
}

TEST(AdvisorReportTest, OutOfRangeFieldsAreStructuredErrors) {
  AdvisorReport Parsed;
  std::string Err;

  // Prefetch share outside (0, 1000].
  AdvisorReport BadShare;
  BadShare.Prefetch.push_back({1, 8, 2000, 32});
  EXPECT_FALSE(
      AdvisorReport::deserialize(BadShare.serialize(), Parsed, Err));
  EXPECT_NE(Err.find("share"), std::string::npos) << Err;

  // Layout offsets must ascend.
  AdvisorReport BadOffsets;
  BadOffsets.Layout.push_back({0, 16, 8, 5});
  EXPECT_FALSE(
      AdvisorReport::deserialize(BadOffsets.serialize(), Parsed, Err));
  EXPECT_NE(Err.find("offsets"), std::string::npos) << Err;

  // Footprint without objects is inconsistent.
  AdvisorReport BadObjects;
  BadObjects.Placement.push_back({0, 10, 100, 0, 0, true, false});
  EXPECT_FALSE(
      AdvisorReport::deserialize(BadObjects.serialize(), Parsed, Err));
  EXPECT_NE(Err.find("objects"), std::string::npos) << Err;

  // Zero-stride prefetch advice is meaningless.
  AdvisorReport BadStride;
  BadStride.Prefetch.push_back({1, 0, 800, 32});
  EXPECT_FALSE(
      AdvisorReport::deserialize(BadStride.serialize(), Parsed, Err));
  EXPECT_NE(Err.find("stride"), std::string::npos) << Err;

  // Trailing bytes after a valid body.
  std::vector<uint8_t> P;
  encodeULEB128(0, P);
  encodeULEB128(0, P);
  encodeULEB128(0, P);
  P.push_back(0x5a);
  AdvisorReport Out;
  EXPECT_FALSE(AdvisorReport::deserialize(frameAsOrpa(P), Out, Err));
  EXPECT_NE(Err.find("trailing"), std::string::npos) << Err;
}

//===----------------------------------------------------------------------===//
// Tiered simulation payoff (the acceptance gate, in-process)
//===----------------------------------------------------------------------===//

namespace {

/// Records \p WorkloadName, builds advice from its profiles, and
/// simulates the three policies at 25% of peak live bytes.
void payoffFor(const std::string &WorkloadName, TieredSimResult &None,
               TieredSimResult &Lru, TieredSimResult &Advised) {
  std::string Path = tempPath(WorkloadName + ".orpt");
  leap::LeapProfileData Leap;
  whomp::OmsgArchive Omsg;
  profileWorkload(WorkloadName, Leap, Omsg, Path);
  AdvisorReport Report = HotColdClassifier().classify(Leap, Omsg);

  traceio::TraceReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();
  uint64_t Peak = 0;
  std::string Err;
  ASSERT_TRUE(peakLiveBytes(Reader, Peak, Err)) << Err;
  ASSERT_GT(Peak, 0u);

  TieredSimOptions Opts;
  Opts.FastCapacityBytes = Peak / 4;
  Opts.Policy = memsim::TierPolicy::FirstTouch;
  ASSERT_TRUE(simulateTiered(Reader, Opts, None, Err)) << Err;
  Opts.Policy = memsim::TierPolicy::Lru;
  ASSERT_TRUE(simulateTiered(Reader, Opts, Lru, Err)) << Err;
  Opts.Policy = memsim::TierPolicy::Advised;
  Opts.Advice = &Report;
  ASSERT_TRUE(simulateTiered(Reader, Opts, Advised, Err)) << Err;

  std::remove(Path.c_str());
}

} // namespace

TEST(TieredReplayTest, AdviceBeatsFirstTouchOnListTraversal) {
  TieredSimResult None, Lru, Advised;
  payoffFor("list-traversal", None, Lru, Advised);

  // The pinned delta: advice-driven static placement strictly beats
  // unadvised first-touch, without a single migration.
  EXPECT_GT(Advised.Stats.fastHitRate(), None.Stats.fastHitRate());
  EXPECT_EQ(Advised.Stats.migrations(), 0u);
  EXPECT_EQ(None.Stats.migrations(), 0u);
  EXPECT_GT(Lru.Stats.migrations(), 0u) << "reactive baseline pays moves";
  EXPECT_GT(Advised.HotGroupsSelected, 0u);

  // All three policies replay the same stream.
  EXPECT_EQ(None.Accesses, Advised.Accesses);
  EXPECT_EQ(None.Accesses, Lru.Accesses);
  EXPECT_EQ(None.Stats.FastHits + None.Stats.SlowHits, None.Accesses);
  EXPECT_EQ(None.Stats.Unmapped, 0u);
}

TEST(TieredReplayTest, AdviceBeatsFirstTouchOnMcf) {
  TieredSimResult None, Lru, Advised;
  payoffFor("181.mcf-a", None, Lru, Advised);
  EXPECT_GT(Advised.Stats.fastHitRate(), None.Stats.fastHitRate());
  EXPECT_EQ(Advised.Stats.migrations(), 0u);
}

TEST(TieredReplayTest, SelectHotGroupsPacksGreedily) {
  AdvisorReport Report;
  // Rank order after sorting: group 2 (densest), group 0, group 1.
  Report.Placement.push_back({2, 1000, 100, 10, 0, true, false});
  Report.Placement.push_back({0, 500, 100, 10, 0, true, false});
  Report.Placement.push_back({1, 100, 100, 10, 0, false, false});
  std::sort(Report.Placement.begin(), Report.Placement.end(),
            placementRankBefore);

  // Budget for two whole groups.
  auto Two = selectHotGroups(Report, 200);
  EXPECT_EQ(Two.size(), 2u);
  EXPECT_TRUE(Two.count(2));
  EXPECT_TRUE(Two.count(0));

  // A marginal group takes the leftover budget (partial placement).
  auto Marginal = selectHotGroups(Report, 150);
  EXPECT_EQ(Marginal.size(), 2u);
  EXPECT_TRUE(Marginal.count(2));
  EXPECT_TRUE(Marginal.count(0)) << "mean object size 10 fits the rest";

  // Unaccessed groups never earn fast-tier bytes.
  AdvisorReport Cold;
  Cold.Placement.push_back({7, 0, 100, 10, 0, false, false});
  EXPECT_TRUE(selectHotGroups(Cold, 1000).empty());

  // Nothing fits whole: the hottest accessed group still goes in.
  AdvisorReport Huge;
  Huge.Placement.push_back({3, 1000, 5000, 1, 0, true, false});
  auto Fallback = selectHotGroups(Huge, 100);
  EXPECT_EQ(Fallback.size(), 1u);
  EXPECT_TRUE(Fallback.count(3));
}

//===----------------------------------------------------------------------===//
// Artifact byte-identity with the advisor attached
//===----------------------------------------------------------------------===//

TEST(AdvisorNeutralityTest, ProfilesAreByteIdenticalWithAdvisorAttached) {
  leap::LeapProfileData PlainLeap, AdvisedLeap;
  whomp::OmsgArchive PlainOmsg, AdvisedOmsg;
  profileWorkload("list-traversal", PlainLeap, PlainOmsg);

  // Second run: identical, but the classifier runs over the finished
  // profiles and the telemetry bridge publishes while we snapshot.
  profileWorkload("list-traversal", AdvisedLeap, AdvisedOmsg);
  AdvisorReport Report =
      HotColdClassifier().classify(AdvisedLeap, AdvisedOmsg);
  AdvisorTelemetry Bridge;
  Bridge.attachReport(&Report);
  (void)telemetry::Registry::global().snapshot();

  EXPECT_EQ(PlainLeap.serialize(), AdvisedLeap.serialize());
  EXPECT_EQ(PlainOmsg.serialize(), AdvisedOmsg.serialize());
}

//===----------------------------------------------------------------------===//
// Telemetry bridge
//===----------------------------------------------------------------------===//

TEST(AdvisorTelemetryTest, GaugesAppearInGlobalSnapshot) {
  AdvisorReport Report = listTraversalReport();
  memsim::TierStats Stats;
  Stats.FastHits = 75;
  Stats.SlowHits = 25;
  Stats.Promotions = 3;
  Stats.Evictions = 2;

  AdvisorTelemetry Bridge;
  Bridge.attachReport(&Report);
  Bridge.attachTierStats(&Stats);
  telemetry::MetricsSnapshot S = telemetry::Registry::global().snapshot();
  EXPECT_EQ(S.gauge("advisor.placement_groups"),
            static_cast<int64_t>(Report.Placement.size()));
  EXPECT_EQ(S.gauge("advisor.hot_groups"),
            static_cast<int64_t>(Report.hotGroupCount()));
  EXPECT_EQ(S.gauge("tiersim.fast_hits"), 75);
  EXPECT_EQ(S.gauge("tiersim.slow_hits"), 25);
  EXPECT_EQ(S.gauge("tiersim.fast_hit_permille"), 750);
}
