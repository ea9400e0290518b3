//===- tests/merge_test.cpp - Profile merging and checkpointing ----------===//
//
// The ground truth under test (DESIGN.md section 17): a trace split at
// ANY block boundary, profiled as checkpointed segments and merged,
// must byte-match the unsplit profile — for LEAP via the resumed
// compressor, for WHOMP/OMSG via grammar re-concatenation, and for the
// OMC via the checkpoint image. Union merges of independent runs must
// be associative and commutative. The hardened deserializers must
// reject every truncation and corruption with a structured error.
//
//===----------------------------------------------------------------------===//

#include "core/ProfilingSession.h"
#include "leap/Leap.h"
#include "leap/LeapProfileData.h"
#include "lmad/LmadCompressor.h"
#include "omc/ObjectManager.h"
#include "omc/OmcCheckpoint.h"
#include "session/ProfileSession.h"
#include "support/Checksum.h"
#include "traceio/TraceReader.h"
#include "traceio/TraceWriter.h"
#include "whomp/OmsgArchive.h"
#include "whomp/OmsgStats.h"
#include "whomp/Whomp.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

using namespace orp;

namespace {

/// Small deterministic xorshift generator (tests must not depend on
/// library rand()).
struct Rng {
  uint64_t S;
  explicit Rng(uint64_t Seed) : S(Seed ? Seed : 1) {}
  uint64_t next() {
    S ^= S << 13;
    S ^= S >> 7;
    S ^= S << 17;
    return S;
  }
  uint64_t nextBelow(uint64_t N) { return next() % N; }
};

void expectSameCompressor(const lmad::LmadCompressor &A,
                          const lmad::LmadCompressor &B,
                          const std::string &What) {
  ASSERT_EQ(A.lmads().size(), B.lmads().size()) << What;
  for (size_t I = 0; I != A.lmads().size(); ++I) {
    EXPECT_EQ(A.lmads()[I].Start, B.lmads()[I].Start) << What << " #" << I;
    EXPECT_EQ(A.lmads()[I].Stride, B.lmads()[I].Stride) << What << " #" << I;
    EXPECT_EQ(A.lmads()[I].Count, B.lmads()[I].Count) << What << " #" << I;
  }
  EXPECT_EQ(A.totalPoints(), B.totalPoints()) << What;
  EXPECT_EQ(A.overflow().Dropped, B.overflow().Dropped) << What;
  EXPECT_EQ(A.overflow().Min, B.overflow().Min) << What;
  EXPECT_EQ(A.overflow().Max, B.overflow().Max) << What;
  EXPECT_EQ(A.overflow().Granularity, B.overflow().Granularity) << What;
  if (A.hasDiscards()) {
    EXPECT_EQ(A.firstDiscard(), B.firstDiscard()) << What;
    EXPECT_EQ(A.lastDiscard(), B.lastDiscard()) << What;
  }
}

/// A stream with linear runs and noise, so splits land inside captured
/// descriptors, at descriptor boundaries, and inside the discard tail.
std::vector<lmad::Point> mixedStream(uint64_t Seed, size_t N) {
  std::vector<lmad::Point> Points;
  Rng R(Seed);
  int64_t Obj = 0, Off = 0;
  for (size_t I = 0; I != N; ++I) {
    if (I % 17 == 0) {
      Obj = static_cast<int64_t>(R.nextBelow(8));
      Off = static_cast<int64_t>(R.nextBelow(64)) * 8;
    } else {
      Off += 8;
    }
    Points.push_back({Obj, Off, static_cast<int64_t>(I)});
  }
  return Points;
}

} // namespace

//===----------------------------------------------------------------------===//
// LMAD compressor resume (the sequential-merge primitive)
//===----------------------------------------------------------------------===//

TEST(LmadResumeTest, ResumeWithRawContinuationMatchesUnsplitAtEveryIndex) {
  // The resume() contract itself: a compressor rebuilt from a captured
  // state and fed the RAW remaining points behaves as if the stream had
  // never been split — at every split index, every cap.
  const std::vector<lmad::Point> Stream = mixedStream(/*Seed=*/42, 260);
  for (unsigned Cap : {2u, 4u, 30u}) {
    lmad::LmadCompressor Whole(3, Cap);
    for (const lmad::Point &P : Stream)
      Whole.addPoint(P);

    for (size_t Split = 0; Split <= Stream.size(); ++Split) {
      lmad::LmadCompressor Left(3, Cap);
      for (size_t I = 0; I != Split; ++I)
        Left.addPoint(Stream[I]);
      lmad::LmadCompressor Merged = lmad::LmadCompressor::resume(
          3, Cap, Left.lmads(), Left.totalPoints(), Left.overflow(),
          Left.firstDiscard(), Left.lastDiscard());
      for (size_t I = Split; I != Stream.size(); ++I)
        Merged.addPoint(Stream[I]);

      expectSameCompressor(Whole, Merged,
                           "cap " + std::to_string(Cap) + " split " +
                               std::to_string(Split));
    }
  }
}

TEST(LmadResumeTest, CapturedReplayPlusTailFoldMatchesUnsplit) {
  // The full segment-merge pipeline (replay the right segment's
  // CAPTURED prefix, fold its overflow tail). This is byte-exact
  // whenever the right segment's capture horizon reaches the unsplit
  // one — i.e. unless the fresh right compressor gave up before the
  // unsplit compressor would have (the carry-over branch of
  // foldOverflowTail), where the result degrades to a coarser but
  // conservative summary. Both regimes are asserted.
  const std::vector<lmad::Point> Stream = mixedStream(/*Seed=*/42, 260);
  for (unsigned Cap : {2u, 4u, 30u}) {
    lmad::LmadCompressor Whole(3, Cap);
    for (const lmad::Point &P : Stream)
      Whole.addPoint(P);

    size_t ExactSplits = 0;
    for (size_t Split = 0; Split <= Stream.size(); ++Split) {
      lmad::LmadCompressor Left(3, Cap), Right(3, Cap);
      for (size_t I = 0; I != Split; ++I)
        Left.addPoint(Stream[I]);
      for (size_t I = Split; I != Stream.size(); ++I)
        Right.addPoint(Stream[I]);

      lmad::LmadCompressor Merged = lmad::LmadCompressor::resume(
          3, Cap, Left.lmads(), Left.totalPoints(), Left.overflow(),
          Left.firstDiscard(), Left.lastDiscard());
      for (const lmad::Point &P : Right.reconstruct())
        Merged.addPoint(P);
      const bool LossyFold = Right.hasDiscards() && !Merged.hasDiscards();
      Merged.foldOverflowTail(Right.overflow(), Right.firstDiscard(),
                              Right.lastDiscard());

      // Point accounting is exact in every regime.
      EXPECT_EQ(Merged.totalPoints(), Whole.totalPoints())
          << "cap " << Cap << " split " << Split;
      if (LossyFold) {
        // The right segment overflowed before the unsplit capture
        // horizon: the merge keeps fewer descriptors and a wider
        // summary, never the other way around.
        EXPECT_GE(Merged.overflow().Dropped, Whole.overflow().Dropped)
            << "cap " << Cap << " split " << Split;
        continue;
      }
      ++ExactSplits;
      expectSameCompressor(Whole, Merged,
                           "cap " + std::to_string(Cap) + " split " +
                               std::to_string(Split));
    }
    // The exact regime must dominate (it covers split==0, split==N,
    // every split past the unsplit capture horizon, and every split
    // whose continuation saturates the replay).
    EXPECT_GT(ExactSplits, Stream.size() / 2) << "cap " << Cap;
  }
}

//===----------------------------------------------------------------------===//
// LEAP profile merges
//===----------------------------------------------------------------------===//

namespace {

/// A deterministic multi-substream tuple stream with mixed loads and
/// stores and enough irregularity to overflow small caps.
std::vector<core::OrTuple> tupleStream(uint64_t Seed, size_t N) {
  std::vector<core::OrTuple> Tuples;
  Rng R(Seed);
  for (size_t I = 0; I != N; ++I) {
    trace::InstrId Instr = 1 + static_cast<trace::InstrId>(R.nextBelow(3));
    omc::GroupId Group = static_cast<omc::GroupId>(R.nextBelow(2));
    Tuples.push_back(core::OrTuple{Instr, Group, R.nextBelow(50),
                                   R.nextBelow(32) * 8,
                                   static_cast<uint64_t>(I),
                                   (I % 3) == 0, 8});
  }
  return Tuples;
}

std::vector<uint8_t> profileBytes(const std::vector<core::OrTuple> &Tuples,
                                  size_t Begin, size_t End,
                                  unsigned MaxLmads) {
  leap::LeapProfiler Leap(MaxLmads);
  for (size_t I = Begin; I != End; ++I)
    Leap.consume(Tuples[I]);
  return leap::LeapProfileData::fromProfiler(Leap).serialize();
}

leap::LeapProfileData parseProfile(const std::vector<uint8_t> &Bytes) {
  leap::LeapProfileData Data;
  std::string Err;
  EXPECT_TRUE(leap::LeapProfileData::deserialize(Bytes, Data, Err)) << Err;
  return Data;
}

} // namespace

TEST(LeapMergeTest, SequentialSplitAtEveryBoundaryIsByteExact) {
  const std::vector<core::OrTuple> Tuples = tupleStream(/*Seed=*/7, 300);
  for (unsigned Cap : {2u, 30u}) {
    const std::vector<uint8_t> Unsplit =
        profileBytes(Tuples, 0, Tuples.size(), Cap);
    // Every 7th boundary plus the edges keeps the quadratic cost down
    // while still hitting splits inside runs and inside overflow tails.
    for (size_t Split = 0; Split <= Tuples.size();
         Split += (Split % 7 == 0 ? 1 : 6)) {
      leap::LeapProfileData Left =
          parseProfile(profileBytes(Tuples, 0, Split, Cap));
      leap::LeapProfileData Right =
          parseProfile(profileBytes(Tuples, Split, Tuples.size(), Cap));
      std::string Err;
      ASSERT_TRUE(Left.mergeSequential(Right, Err))
          << "split " << Split << ": " << Err;
      EXPECT_EQ(Left.serialize(), Unsplit)
          << "cap " << Cap << " split " << Split;
    }
  }
}

TEST(LeapMergeTest, SequentialMergeIsAssociative) {
  const std::vector<core::OrTuple> Tuples = tupleStream(/*Seed=*/19, 240);
  const std::vector<uint8_t> Unsplit = profileBytes(Tuples, 0, 240, 2);
  auto A = profileBytes(Tuples, 0, 80, 2);
  auto B = profileBytes(Tuples, 80, 160, 2);
  auto C = profileBytes(Tuples, 160, 240, 2);
  std::string Err;

  // (A + B) + C
  leap::LeapProfileData L = parseProfile(A);
  ASSERT_TRUE(L.mergeSequential(parseProfile(B), Err)) << Err;
  ASSERT_TRUE(L.mergeSequential(parseProfile(C), Err)) << Err;
  EXPECT_EQ(L.serialize(), Unsplit);

  // A + (B + C)
  leap::LeapProfileData R = parseProfile(B);
  ASSERT_TRUE(R.mergeSequential(parseProfile(C), Err)) << Err;
  leap::LeapProfileData L2 = parseProfile(A);
  ASSERT_TRUE(L2.mergeSequential(R, Err)) << Err;
  EXPECT_EQ(L2.serialize(), Unsplit);
}

TEST(LeapMergeTest, UnionIsCommutativeAssociativeWithIdentity) {
  // Profiles of three INDEPENDENT runs (different seeds, overlapping
  // substream keys).
  auto A = parseProfile(profileBytes(tupleStream(11, 200), 0, 200, 4));
  auto B = parseProfile(profileBytes(tupleStream(22, 150), 0, 150, 4));
  auto C = parseProfile(profileBytes(tupleStream(33, 250), 0, 250, 4));
  std::string Err;

  auto merge2 = [&](const leap::LeapProfileData &X,
                    const leap::LeapProfileData &Y) {
    leap::LeapProfileData Out = X;
    EXPECT_TRUE(Out.mergeUnion(Y, Err)) << Err;
    return Out;
  };

  std::vector<uint8_t> AB_C = merge2(merge2(A, B), C).serialize();
  std::vector<uint8_t> A_BC = merge2(A, merge2(B, C)).serialize();
  std::vector<uint8_t> CB_A = merge2(merge2(C, B), A).serialize();
  std::vector<uint8_t> BA_C = merge2(merge2(B, A), C).serialize();
  EXPECT_EQ(AB_C, A_BC);
  EXPECT_EQ(AB_C, CB_A);
  EXPECT_EQ(AB_C, BA_C);

  // The empty profile (same cap) is the identity.
  leap::LeapProfiler Empty(4);
  auto Identity = leap::LeapProfileData::fromProfiler(Empty);
  EXPECT_EQ(merge2(A, Identity).serialize(), A.serialize());
  EXPECT_EQ(merge2(Identity, A).serialize(), A.serialize());
}

TEST(LeapMergeTest, MismatchedCapsAreRejected) {
  auto A = parseProfile(profileBytes(tupleStream(1, 50), 0, 50, 4));
  auto B = parseProfile(profileBytes(tupleStream(1, 50), 0, 50, 8));
  std::string Err;
  EXPECT_FALSE(A.mergeUnion(B, Err));
  EXPECT_NE(Err.find("cap"), std::string::npos) << Err;
  Err.clear();
  EXPECT_FALSE(A.mergeSequential(B, Err));
  EXPECT_NE(Err.find("cap"), std::string::npos) << Err;
}

//===----------------------------------------------------------------------===//
// Split load/store instruction counters (the Leap.cpp bugfix)
//===----------------------------------------------------------------------===//

TEST(LeapInstrSummaryTest, MixedLoadStoreInstructionKeepsBothCounts) {
  leap::LeapProfiler Leap;
  // Instruction 1 issues loads AND stores; instruction 2 only loads.
  // The old last-write-wins bool made instruction 1's direction depend
  // on event order.
  Leap.consume(core::OrTuple{1, 0, 0, 0, 1, /*IsStore=*/true, 8});
  Leap.consume(core::OrTuple{1, 0, 0, 8, 2, /*IsStore=*/false, 8});
  Leap.consume(core::OrTuple{1, 0, 0, 16, 3, /*IsStore=*/true, 8});
  Leap.consume(core::OrTuple{2, 0, 0, 0, 4, /*IsStore=*/false, 8});

  auto Data = leap::LeapProfileData::fromProfiler(Leap);
  const auto &I1 = Data.instructions().at(1);
  EXPECT_EQ(I1.ExecCount, 3u);
  EXPECT_EQ(I1.StoreCount, 2u);
  EXPECT_TRUE(I1.isStore());
  const auto &I2 = Data.instructions().at(2);
  EXPECT_EQ(I2.ExecCount, 1u);
  EXPECT_EQ(I2.StoreCount, 0u);
  EXPECT_FALSE(I2.isStore());

  // The counters survive a serialization round trip and fold by
  // addition under merge.
  auto Back = parseProfile(Data.serialize());
  EXPECT_EQ(Back.instructions().at(1).StoreCount, 2u);
  std::string Err;
  ASSERT_TRUE(Back.mergeUnion(Data, Err)) << Err;
  EXPECT_EQ(Back.instructions().at(1).ExecCount, 6u);
  EXPECT_EQ(Back.instructions().at(1).StoreCount, 4u);
}

//===----------------------------------------------------------------------===//
// Hardened deserialization
//===----------------------------------------------------------------------===//

TEST(HardenedDeserializeTest, LeapRejectsEveryTruncation) {
  auto Bytes = profileBytes(tupleStream(5, 120), 0, 120, 2);
  leap::LeapProfileData Out;
  std::string Err;
  ASSERT_TRUE(leap::LeapProfileData::deserialize(Bytes, Out, Err)) << Err;
  for (size_t Len = 0; Len != Bytes.size(); ++Len) {
    std::vector<uint8_t> Prefix(Bytes.begin(), Bytes.begin() + Len);
    leap::LeapProfileData Trunc;
    Err.clear();
    EXPECT_FALSE(leap::LeapProfileData::deserialize(Prefix, Trunc, Err))
        << "prefix " << Len << " must be rejected";
    EXPECT_FALSE(Err.empty()) << "prefix " << Len;
  }
}

TEST(HardenedDeserializeTest, LeapRejectsCorruptHeaderAndPayload) {
  auto Bytes = profileBytes(tupleStream(6, 80), 0, 80, 4);
  leap::LeapProfileData Out;
  std::string Err;

  auto BadMagic = Bytes;
  BadMagic[0] = 'X';
  EXPECT_FALSE(leap::LeapProfileData::deserialize(BadMagic, Out, Err));
  EXPECT_NE(Err.find("magic"), std::string::npos) << Err;

  auto BadVersion = Bytes;
  BadVersion[4] = 0x7f;
  EXPECT_FALSE(leap::LeapProfileData::deserialize(BadVersion, Out, Err));
  EXPECT_NE(Err.find("version"), std::string::npos) << Err;

  // Every single-byte payload flip must be caught by the checksum.
  for (size_t I = leap::LeapProfileData::kHeaderSize; I < Bytes.size();
       I += 11) {
    auto Flipped = Bytes;
    Flipped[I] ^= 0x40;
    EXPECT_FALSE(leap::LeapProfileData::deserialize(Flipped, Out, Err))
        << "flip at " << I;
  }
}

TEST(HardenedDeserializeTest, OmsgStatsRoundTripAndFold) {
  whomp::WhompProfiler WhompA, WhompB;
  uint64_t Time = 0;
  for (unsigned I = 0; I != 64; ++I) {
    WhompA.consume(core::OrTuple{1, 0, I % 4, (I % 8) * 8, ++Time, false, 8});
    WhompB.consume(core::OrTuple{1, 0, I % 2, (I % 16) * 8, ++Time, false, 8});
  }
  WhompA.finish();
  WhompB.finish();
  auto StatsA = whomp::OmsgStats::fromArchive(whomp::OmsgArchive::build(WhompA));
  auto StatsB = whomp::OmsgStats::fromArchive(whomp::OmsgArchive::build(WhompB));
  EXPECT_EQ(StatsA.runs(), 1u);
  EXPECT_EQ(StatsA.accessCount(), 64u);
  ASSERT_EQ(StatsA.dimensions().size(), 4u);
  EXPECT_GT(StatsA.dimensions()[3].RuleCount, 0u);

  std::string Err;
  whomp::OmsgStats AB = StatsA, BA = StatsB;
  ASSERT_TRUE(AB.merge(StatsB, Err)) << Err;
  ASSERT_TRUE(BA.merge(StatsA, Err)) << Err;
  EXPECT_EQ(AB.serialize(), BA.serialize()) << "fold must be commutative";
  EXPECT_EQ(AB.runs(), 2u);
  EXPECT_EQ(AB.accessCount(), 128u);

  whomp::OmsgStats Back;
  ASSERT_TRUE(whomp::OmsgStats::deserialize(AB.serialize(), Back, Err)) << Err;
  EXPECT_TRUE(Back == AB);

  // Truncations of the digest are rejected too.
  auto Bytes = AB.serialize();
  for (size_t Len = 0; Len != Bytes.size(); ++Len) {
    std::vector<uint8_t> Prefix(Bytes.begin(), Bytes.begin() + Len);
    whomp::OmsgStats Trunc;
    EXPECT_FALSE(whomp::OmsgStats::deserialize(Prefix, Trunc, Err));
  }
}

//===----------------------------------------------------------------------===//
// OMC checkpointing
//===----------------------------------------------------------------------===//

namespace {

/// Drives \p Omc through a deterministic alloc/free/pool history.
void driveOmc(omc::ObjectManager &Omc) {
  Omc.splitPoolSite(/*Site=*/3, /*ElementSize=*/16);
  uint64_t Time = 0;
  Omc.onAlloc({/*Site=*/1, /*Addr=*/0x1000, /*Size=*/64, ++Time, false});
  Omc.onAlloc({/*Site=*/2, /*Addr=*/0x2000, /*Size=*/128, ++Time, false});
  Omc.onAlloc({/*Site=*/3, /*Addr=*/0x4000, /*Size=*/256, ++Time, false});
  Omc.onFree({0x2000, ++Time});
  Omc.onAlloc({/*Site=*/1, /*Addr=*/0x2000, /*Size=*/32, ++Time, false});
  Omc.onAlloc({/*Site=*/4, /*Addr=*/0x8000, /*Size=*/512, ++Time, true});
}

} // namespace

TEST(OmcCheckpointTest, RoundTripPreservesStateAndFutureBehavior) {
  omc::ObjectManager Original;
  driveOmc(Original);

  std::vector<uint8_t> Image;
  omc::OmcCheckpoint::serialize(Original, Image);

  omc::ObjectManager Restored;
  size_t Pos = 0;
  std::string Err;
  ASSERT_TRUE(omc::OmcCheckpoint::restore(Image.data(), Image.size(), Pos,
                                          Restored, Err))
      << Err;
  EXPECT_EQ(Pos, Image.size()) << "restore must consume the whole section";

  ASSERT_EQ(Restored.records().size(), Original.records().size());
  for (size_t I = 0; I != Original.records().size(); ++I) {
    const omc::ObjectRecord &A = Original.records()[I];
    const omc::ObjectRecord &B = Restored.records()[I];
    EXPECT_EQ(A.Group, B.Group);
    EXPECT_EQ(A.Serial, B.Serial);
    EXPECT_EQ(A.Site, B.Site);
    EXPECT_EQ(A.Base, B.Base);
    EXPECT_EQ(A.Size, B.Size);
    EXPECT_EQ(A.AllocTime, B.AllocTime);
    EXPECT_EQ(A.FreeTime, B.FreeTime);
    EXPECT_EQ(A.IsStatic, B.IsStatic);
  }
  EXPECT_EQ(Restored.numGroups(), Original.numGroups());
  EXPECT_EQ(Restored.numLiveObjects(), Original.numLiveObjects());

  // Identical translations, including the pool-split site...
  for (uint64_t Addr : {0x1000ull, 0x1008ull, 0x2000ull, 0x401Full,
                        0x4020ull, 0x8000ull, 0x9999ull}) {
    auto A = Original.translate(Addr);
    auto B = Restored.translate(Addr);
    ASSERT_EQ(A.has_value(), B.has_value()) << std::hex << Addr;
    if (A) {
      EXPECT_EQ(A->Group, B->Group) << std::hex << Addr;
      EXPECT_EQ(A->Object, B->Object) << std::hex << Addr;
      EXPECT_EQ(A->Offset, B->Offset) << std::hex << Addr;
    }
  }
  // ...and identical FUTURE behavior: serial counters continue where
  // they left off.
  Original.onAlloc({/*Site=*/1, /*Addr=*/0x10000, /*Size=*/64, 100, false});
  Restored.onAlloc({/*Site=*/1, /*Addr=*/0x10000, /*Size=*/64, 100, false});
  auto A = Original.translate(0x10000);
  auto B = Restored.translate(0x10000);
  ASSERT_TRUE(A && B);
  EXPECT_EQ(A->Group, B->Group);
  EXPECT_EQ(A->Object, B->Object);
}

TEST(OmcCheckpointTest, RejectsTruncationAndCorruption) {
  omc::ObjectManager Original;
  driveOmc(Original);
  std::vector<uint8_t> Image;
  omc::OmcCheckpoint::serialize(Original, Image);

  for (size_t Len = 0; Len != Image.size(); ++Len) {
    omc::ObjectManager Fresh;
    size_t Pos = 0;
    std::string Err;
    // A strict prefix either fails...
    if (!omc::OmcCheckpoint::restore(Image.data(), Len, Pos, Fresh, Err)) {
      EXPECT_FALSE(Err.empty()) << "prefix " << Len;
      continue;
    }
    // ...or (rarely) parses as a shorter valid section; then it must
    // have consumed exactly the prefix.
    EXPECT_EQ(Pos, Len);
  }

  // A used target is refused.
  omc::ObjectManager Used;
  driveOmc(Used);
  size_t Pos = 0;
  std::string Err;
  EXPECT_FALSE(
      omc::OmcCheckpoint::restore(Image.data(), Image.size(), Pos, Used, Err));
  EXPECT_NE(Err.find("fresh"), std::string::npos) << Err;
}

//===----------------------------------------------------------------------===//
// Session checkpoint/resume: split-anywhere ground truth
//===----------------------------------------------------------------------===//

namespace {

std::string tempPath(const std::string &Name) {
  return testing::TempDir() + "orp_merge_" + Name;
}

void recordTrace(const std::string &WorkloadName, const std::string &Path,
                 size_t BlockBytes = 4096) {
  core::ProfilingSession Session(memsim::AllocPolicy::FirstFit, /*Seed=*/7);
  traceio::TraceWriter Writer(Path, Session.registry(),
                              memsim::AllocPolicy::FirstFit, /*Seed=*/7,
                              BlockBytes);
  ASSERT_TRUE(Writer.ok()) << Writer.error();
  Session.addRawSink(&Writer);
  auto W = workloads::createWorkloadByName(WorkloadName);
  ASSERT_TRUE(W);
  workloads::WorkloadConfig Config;
  W->run(Session.memory(), Session.registry(), Config);
  Session.finish();
  ASSERT_TRUE(Writer.close()) << Writer.error();
}

session::SessionConfig configFor(const traceio::TraceReader &Reader,
                                 unsigned MaxLmads) {
  session::SessionConfig Config = session::recordedConfig(Reader);
  Config.MaxLmads = MaxLmads;
  return Config;
}

/// Replays \p TracePath in one go (the ground truth).
session::SessionArtifacts unsplitArtifacts(const std::string &TracePath,
                                           unsigned MaxLmads) {
  traceio::TraceReader Reader;
  EXPECT_TRUE(Reader.open(TracePath)) << Reader.error();
  session::ProfileSession Session("unsplit", configFor(Reader, MaxLmads));
  EXPECT_TRUE(Session.replayFrom(Reader)) << Session.error();
  return Session.finalize();
}

/// Replays \p TracePath as consecutive segments split at \p Boundaries
/// (checkpoint at each boundary, restore into a fresh session) and
/// merges the per-segment artifacts sequentially.
session::SessionArtifacts
segmentedArtifacts(const std::string &TracePath,
                   const std::vector<uint64_t> &Boundaries, unsigned MaxLmads,
                   unsigned DecodeThreads) {
  session::SessionArtifacts Merged;
  std::vector<session::SessionArtifacts> Parts;
  std::vector<uint8_t> Checkpoint;

  std::vector<uint64_t> Ends = Boundaries;
  Ends.push_back(~static_cast<uint64_t>(0));
  for (size_t Seg = 0; Seg != Ends.size(); ++Seg) {
    traceio::TraceReader Reader;
    EXPECT_TRUE(Reader.open(TracePath)) << Reader.error();
    session::ProfileSession Session("seg" + std::to_string(Seg),
                                    configFor(Reader, MaxLmads));
    uint64_t First = 0;
    std::string Err;
    if (Seg != 0) {
      EXPECT_TRUE(Session.restoreCheckpoint(Checkpoint, Reader, First, Err))
          << Err;
      EXPECT_EQ(First, Boundaries[Seg - 1]);
    }
    EXPECT_TRUE(Session.replayFrom(Reader, DecodeThreads, First, Ends[Seg]))
        << Session.error();
    if (Seg + 1 != Ends.size())
      Checkpoint = Session.checkpoint(Reader, Ends[Seg]);
    Parts.push_back(Session.finalize());
  }

  // Fold the segment artifacts: LEAP through mergeSequential, OMSG
  // through grammar re-concatenation.
  leap::LeapProfileData Leap;
  std::string Err;
  EXPECT_TRUE(leap::LeapProfileData::deserialize(Parts[0].Leap, Leap, Err))
      << Err;
  std::vector<whomp::OmsgArchive> Archives(Parts.size());
  std::vector<const whomp::OmsgArchive *> Segments;
  for (size_t I = 0; I != Parts.size(); ++I) {
    EXPECT_FALSE(Parts[I].Failed) << Parts[I].Error;
    if (I != 0) {
      leap::LeapProfileData Next;
      EXPECT_TRUE(leap::LeapProfileData::deserialize(Parts[I].Leap, Next, Err))
          << Err;
      EXPECT_TRUE(Leap.mergeSequential(Next, Err)) << Err;
    }
    EXPECT_TRUE(whomp::OmsgArchive::deserialize(Parts[I].Omsg, Archives[I],
                                                Err))
        << Err;
    Segments.push_back(&Archives[I]);
  }
  whomp::OmsgArchive Omsg;
  EXPECT_TRUE(whomp::OmsgArchive::mergeSequential(Segments, Omsg, Err)) << Err;

  Merged.Leap = Leap.serialize();
  Merged.Omsg = Omsg.serialize();
  Merged.Events = Parts.back().Events; // Cumulative via the checkpoint.
  return Merged;
}

} // namespace

TEST(SessionCheckpointTest, SplitAtEveryBoundaryMatchesUnsplit) {
  std::string Path = tempPath("split.orpt");
  recordTrace("list-traversal", Path);
  traceio::TraceReader Probe;
  ASSERT_TRUE(Probe.open(Path)) << Probe.error();
  const uint64_t NumBlocks = Probe.numEventBlocks();
  ASSERT_GE(NumBlocks, 4u) << "trace too small to exercise splitting";

  const session::SessionArtifacts Unsplit = unsplitArtifacts(Path, 30);
  ASSERT_FALSE(Unsplit.Failed) << Unsplit.Error;

  // Two segments, split at every block boundary (stride-capped for very
  // long traces).
  uint64_t Step = NumBlocks > 16 ? NumBlocks / 16 : 1;
  for (uint64_t Split = 1; Split < NumBlocks; Split += Step) {
    session::SessionArtifacts Merged =
        segmentedArtifacts(Path, {Split}, 30, /*DecodeThreads=*/1);
    EXPECT_EQ(Merged.Leap, Unsplit.Leap) << "split at " << Split;
    EXPECT_EQ(Merged.Omsg, Unsplit.Omsg) << "split at " << Split;
    EXPECT_EQ(Merged.Events, Unsplit.Events) << "split at " << Split;
  }
  std::remove(Path.c_str());
}

TEST(SessionCheckpointTest, FourSegmentsAndThreadedDecodeMatchUnsplit) {
  std::string Path = tempPath("fourseg.orpt");
  recordTrace("list-traversal", Path);
  traceio::TraceReader Probe;
  ASSERT_TRUE(Probe.open(Path)) << Probe.error();
  const uint64_t NumBlocks = Probe.numEventBlocks();
  ASSERT_GE(NumBlocks, 4u);

  // A small cap forces overflow tails that must bridge across all three
  // checkpoint boundaries.
  for (unsigned Cap : {2u, 30u}) {
    const session::SessionArtifacts Unsplit = unsplitArtifacts(Path, Cap);
    std::vector<uint64_t> Boundaries = {NumBlocks / 4, NumBlocks / 2,
                                        (3 * NumBlocks) / 4};
    for (unsigned Threads : {1u, 2u, 8u}) {
      session::SessionArtifacts Merged =
          segmentedArtifacts(Path, Boundaries, Cap, Threads);
      EXPECT_EQ(Merged.Leap, Unsplit.Leap)
          << "cap " << Cap << " threads " << Threads;
      EXPECT_EQ(Merged.Omsg, Unsplit.Omsg)
          << "cap " << Cap << " threads " << Threads;
      EXPECT_EQ(Merged.Events, Unsplit.Events);
    }
  }
  std::remove(Path.c_str());
}

TEST(SessionCheckpointTest, CallbackCheckpointMatchesRangedReplay) {
  // A checkpoint taken inside replayFrom's BlockDone callback (the
  // `orp-trace replay --checkpoint-every` path) must count the events
  // injected so far, like one taken after a replay that ends there.
  std::string Path = tempPath("callback_ck.orpt");
  recordTrace("list-traversal", Path);
  traceio::TraceReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();
  const uint64_t Mid = Reader.numEventBlocks() / 2;
  ASSERT_GT(Mid, 0u);

  session::ProfileSession Ranged("ranged", configFor(Reader, 30));
  ASSERT_TRUE(Ranged.replayFrom(Reader, 1, 0, Mid)) << Ranged.error();
  const std::vector<uint8_t> Want = Ranged.checkpoint(Reader, Mid);

  for (unsigned Threads : {1u, 2u}) {
    session::ProfileSession Session("callback", configFor(Reader, 30));
    std::vector<uint8_t> Got;
    ASSERT_TRUE(Session.replayFrom(Reader, Threads, 0,
                                   ~static_cast<uint64_t>(0),
                                   [&](uint64_t Next) {
                                     if (Next == Mid)
                                       Got = Session.checkpoint(Reader, Next);
                                   }))
        << Session.error();
    EXPECT_EQ(Got, Want) << "threads " << Threads;
  }
  std::remove(Path.c_str());
}

TEST(SessionCheckpointTest, RestoreValidatesConfigTraceAndBytes) {
  std::string Path = tempPath("validate.orpt");
  recordTrace("list-traversal", Path);
  traceio::TraceReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();

  session::ProfileSession Session("ck", configFor(Reader, 30));
  ASSERT_TRUE(Session.replayFrom(Reader, 1, 0, 2));
  std::vector<uint8_t> Ck = Session.checkpoint(Reader, 2);

  std::string Err;
  uint64_t Next = 0;
  // Mismatched configuration (different descriptor cap).
  {
    session::ProfileSession Other("bad-cap", configFor(Reader, 8));
    EXPECT_FALSE(Other.restoreCheckpoint(Ck, Reader, Next, Err));
    EXPECT_NE(Err.find("configuration"), std::string::npos) << Err;
  }
  // A session that already saw events is refused.
  {
    session::ProfileSession Other("used", configFor(Reader, 30));
    ASSERT_TRUE(Other.replayFrom(Reader, 1, 0, 1));
    EXPECT_FALSE(Other.restoreCheckpoint(Ck, Reader, Next, Err));
    EXPECT_NE(Err.find("fresh"), std::string::npos) << Err;
  }
  // A different trace is refused.
  {
    std::string Path2 = tempPath("validate2.orpt");
    recordTrace("list-traversal", Path2, /*BlockBytes=*/1024);
    traceio::TraceReader Reader2;
    ASSERT_TRUE(Reader2.open(Path2)) << Reader2.error();
    session::ProfileSession Other("wrong-trace", configFor(Reader2, 30));
    EXPECT_FALSE(Other.restoreCheckpoint(Ck, Reader2, Next, Err));
    EXPECT_NE(Err.find("trace"), std::string::npos) << Err;
    std::remove(Path2.c_str());
  }
  // Corrupt images: truncations at many lengths and a payload flip are
  // rejected.
  for (size_t Len = 0; Len < Ck.size(); Len += 7) {
    session::ProfileSession Other("trunc", configFor(Reader, 30));
    std::vector<uint8_t> Prefix(Ck.begin(), Ck.begin() + Len);
    EXPECT_FALSE(Other.restoreCheckpoint(Prefix, Reader, Next, Err))
        << "prefix " << Len;
  }
  {
    auto Flipped = Ck;
    Flipped[Flipped.size() - 1] ^= 0x01;
    session::ProfileSession Other("flip", configFor(Reader, 30));
    EXPECT_FALSE(Other.restoreCheckpoint(Flipped, Reader, Next, Err));
    EXPECT_NE(Err.find("checksum"), std::string::npos) << Err;
  }
  std::remove(Path.c_str());
}

TEST(SessionCheckpointTest, ForgedImageLeavesSessionFresh) {
  // The CRC is no authentication. Every one-byte change after the
  // header, re-checksummed, is either accepted or rejected with the
  // session left as constructed: the genuine image then restores into
  // the same session. Some changes parse but describe an OMC the deep
  // validator rejects; those must be refused too.
  std::string Path = tempPath("forged.orpt");
  recordTrace("list-traversal", Path);
  traceio::TraceReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();
  session::ProfileSession Source("ck", configFor(Reader, 30));
  ASSERT_TRUE(Source.replayFrom(Reader, 1, 0, 2));
  const std::vector<uint8_t> Ck = Source.checkpoint(Reader, 2);

  constexpr size_t kHeaderSize = 9; // Magic, version, CRC-32.
  size_t Inconsistent = 0;
  for (size_t At = kHeaderSize; At != Ck.size(); ++At) {
    std::vector<uint8_t> Forged = Ck;
    ++Forged[At];
    uint32_t Crc = crc32(Forged.data() + kHeaderSize,
                         Forged.size() - kHeaderSize);
    for (unsigned I = 0; I != 4; ++I)
      Forged[5 + I] = static_cast<uint8_t>(Crc >> (8 * I));
    session::ProfileSession Target("forged", configFor(Reader, 30));
    uint64_t Next = 0;
    std::string Err;
    if (Target.restoreCheckpoint(Forged, Reader, Next, Err))
      continue;
    EXPECT_FALSE(Err.empty()) << "byte " << At;
    Inconsistent += Err.find("inconsistent OMC state") != std::string::npos;
    ASSERT_TRUE(Target.restoreCheckpoint(Ck, Reader, Next, Err))
        << "byte " << At << ": " << Err;
    EXPECT_EQ(Next, 2u);
    EXPECT_EQ(Target.eventsInjected(), Source.eventsInjected());
  }
  EXPECT_GT(Inconsistent, 0u);
  std::remove(Path.c_str());
}
