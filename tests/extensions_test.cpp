//===- tests/extensions_test.cpp - Extension feature tests ---------------===//
//
// Tests for the paper-adjacent extensions: pool splitting (Section 3.1
// footnote), grammar rule statistics and hot-data-stream extraction
// (Section 3.2's optimization consumers), phase-cognizant profiling
// (Section 6 future work), LEAP profile serialization, and the
// union-based conflict counting.
//
//===----------------------------------------------------------------------===//

#include "analysis/Dependence.h"
#include "analysis/HotStreams.h"
#include "analysis/Phases.h"
#include "core/ProfilingSession.h"
#include "leap/LeapProfileData.h"
#include "whomp/OmsgArchive.h"
#include "omc/ObjectManager.h"
#include "sequitur/Sequitur.h"
#include "support/Random.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

using namespace orp;

//===----------------------------------------------------------------------===//
// Pool splitting (OMC parameterization)
//===----------------------------------------------------------------------===//

namespace {

trace::AllocEvent poolAlloc(trace::AllocSiteId Site, uint64_t Addr,
                            uint64_t Size, uint64_t Time = 0) {
  return trace::AllocEvent{Site, Addr, Size, Time, false};
}

} // namespace

TEST(PoolSplitTest, ElementsBecomeObjects) {
  omc::ObjectManager O;
  O.splitPoolSite(5, /*ElementSize=*/32);
  O.onAlloc(poolAlloc(5, 0x1000, 4 * 32));
  auto T0 = O.translate(0x1000);
  auto T1 = O.translate(0x1020 + 8);
  auto T3 = O.translate(0x1060 + 31);
  ASSERT_TRUE(T0 && T1 && T3);
  EXPECT_EQ(T0->Object, 0u);
  EXPECT_EQ(T0->Offset, 0u);
  EXPECT_EQ(T1->Object, 1u);
  EXPECT_EQ(T1->Offset, 8u);
  EXPECT_EQ(T3->Object, 3u);
  EXPECT_EQ(T3->Offset, 31u);
}

TEST(PoolSplitTest, SerialsContinueAcrossPools) {
  omc::ObjectManager O;
  O.splitPoolSite(5, 32);
  O.onAlloc(poolAlloc(5, 0x1000, 2 * 32, 0));
  O.onAlloc(poolAlloc(5, 0x9000, 2 * 32, 1));
  auto T = O.translate(0x9020);
  ASSERT_TRUE(T);
  EXPECT_EQ(T->Object, 3u) << "second pool starts after the first's slots";
}

TEST(PoolSplitTest, UnsplitSitesUnaffected) {
  omc::ObjectManager O;
  O.splitPoolSite(5, 32);
  O.onAlloc(poolAlloc(5, 0x1000, 64, 0));
  O.onAlloc(poolAlloc(7, 0x2000, 64, 1));
  auto T = O.translate(0x2030);
  ASSERT_TRUE(T);
  EXPECT_EQ(T->Object, 0u);
  EXPECT_EQ(T->Offset, 0x30u);
}

TEST(PoolSplitTest, PartialTrailingElement) {
  omc::ObjectManager O;
  O.splitPoolSite(1, 32);
  O.onAlloc(poolAlloc(1, 0x1000, 40)); // 2 slots (one partial).
  auto T = O.translate(0x1000 + 39);
  ASSERT_TRUE(T);
  EXPECT_EQ(T->Object, 1u);
  EXPECT_EQ(T->Offset, 7u);
  // The next pool continues at serial 2.
  O.onAlloc(poolAlloc(1, 0x2000, 32));
  auto T2 = O.translate(0x2000);
  ASSERT_TRUE(T2);
  EXPECT_EQ(T2->Object, 2u);
}

TEST(PoolSplitTest, CachedTranslationsRespectSplit) {
  omc::ObjectManager O;
  O.splitPoolSite(1, 16);
  O.onAlloc(poolAlloc(1, 0x1000, 64));
  // Two consecutive translations of the same pool (second hits the
  // one-entry cache) must both apply the split.
  auto A = O.translate(0x1004);
  auto B = O.translate(0x1034);
  ASSERT_TRUE(A && B);
  EXPECT_EQ(A->Object, 0u);
  EXPECT_EQ(B->Object, 3u);
  EXPECT_EQ(B->Offset, 4u);
}

//===----------------------------------------------------------------------===//
// Grammar rule statistics
//===----------------------------------------------------------------------===//

TEST(RuleStatsTest, PaperExampleCounts) {
  // "abcbcabcbc": S -> AA; A -> aBB; B -> bc.
  sequitur::SequiturGrammar G;
  for (char C : std::string("abcbcabcbc"))
    G.append(static_cast<uint64_t>(C));
  auto Stats = std::move(G).seal().ruleStats();
  ASSERT_EQ(Stats.size(), 3u);
  EXPECT_EQ(Stats[0].Occurrences, 1u); // Start.
  EXPECT_EQ(Stats[0].ExpandedLength, 10u);
  // A occurs twice and expands to 5 terminals; B occurs 4 times (twice
  // per A), expanding to 2.
  const auto &A = Stats[1];
  const auto &B = Stats[2];
  EXPECT_EQ(A.Occurrences, 2u);
  EXPECT_EQ(A.ExpandedLength, 5u);
  EXPECT_EQ(B.Occurrences, 4u);
  EXPECT_EQ(B.ExpandedLength, 2u);
  EXPECT_EQ(B.Prefix, (std::vector<uint64_t>{'b', 'c'}));
}

TEST(RuleStatsTest, ExpansionIdentityHolds) {
  // Sum over rules of (occurrences x direct terminal count) must equal
  // the input length: every terminal position is produced by exactly one
  // terminal symbol in some rule body.
  Rng R(7);
  sequitur::SequiturGrammar G;
  for (int I = 0; I != 3000; ++I)
    G.append(R.nextBelow(4));
  uint64_t Total = 0;
  for (const auto &RS : std::move(G).seal().ruleStats()) {
    // Direct terminals = expanded length minus expansions of referenced
    // rules; recompute from prefix is not possible, so use the
    // identity: sum(occ * expandedLen of rule) counted only for the
    // start rule equals the input; instead verify the cheaper identity
    // below on the start rule and monotonic sanity on the rest.
    if (RS.Id == 0)
      Total = RS.ExpandedLength;
    EXPECT_GE(RS.ExpandedLength, 1u);
    if (RS.Id != 0) {
      EXPECT_GE(RS.Occurrences, 2u) << "rule utility implies >= 2 uses";
    }
  }
  EXPECT_EQ(Total, 3000u);
}

//===----------------------------------------------------------------------===//
// Hot data streams
//===----------------------------------------------------------------------===//

TEST(HotStreamsTest, FindsThePeriodicPattern) {
  sequitur::SequiturGrammar G;
  for (int Rep = 0; Rep != 100; ++Rep)
    for (uint64_t S : {10, 20, 30, 40})
      G.append(S);
  auto Streams = analysis::extractHotStreams(std::move(G).seal());
  ASSERT_FALSE(Streams.empty());
  // The hottest stream covers (almost) the whole input.
  EXPECT_GE(Streams.front().Heat, 300u);
  EXPECT_GE(Streams.front().Occurrences, 2u);
  // Its prefix is drawn from the repeating alphabet.
  for (uint64_t V : Streams.front().Prefix)
    EXPECT_TRUE(V == 10 || V == 20 || V == 30 || V == 40);
}

TEST(HotStreamsTest, RandomStreamHasLittleHeat) {
  Rng R(11);
  sequitur::SequiturGrammar G;
  for (int I = 0; I != 2000; ++I)
    G.append(R.next() >> 1); // Effectively unique symbols below 2^63.
  auto Streams = analysis::extractHotStreams(std::move(G).seal());
  EXPECT_TRUE(Streams.empty());
}

TEST(HotStreamsTest, OptionsFilterShortAndRare) {
  sequitur::SequiturGrammar G;
  for (int Rep = 0; Rep != 50; ++Rep)
    for (uint64_t S : {1, 2})
      G.append(S);
  analysis::HotStreamOptions Opt;
  Opt.MinLength = 1000; // Nothing is that long.
  EXPECT_TRUE(analysis::extractHotStreams(std::move(G).seal(), Opt).empty());
}

TEST(HotStreamsTest, SortedByHeatDescending) {
  Rng R(13);
  sequitur::SequiturGrammar G;
  for (int Rep = 0; Rep != 60; ++Rep) {
    for (uint64_t S : {1, 2, 3, 4, 5, 6, 7, 8})
      G.append(S);
    G.append(100 + R.nextBelow(50)); // Noise between repeats.
  }
  auto Streams = analysis::extractHotStreams(std::move(G).seal());
  for (size_t I = 1; I < Streams.size(); ++I)
    EXPECT_GE(Streams[I - 1].Heat, Streams[I].Heat);
}

//===----------------------------------------------------------------------===//
// Phase detection
//===----------------------------------------------------------------------===//

namespace {

core::OrTuple phaseTuple(omc::GroupId Group, uint64_t Time) {
  return core::OrTuple{0, Group, 0, 0, Time, false, 8};
}

} // namespace

TEST(PhaseDetectorTest, TwoCleanPhases) {
  analysis::PhaseDetector D(/*IntervalSize=*/100, /*Threshold=*/0.5);
  uint64_t T = 0;
  for (int I = 0; I != 1000; ++I)
    D.consume(phaseTuple(0, T++));
  for (int I = 0; I != 1000; ++I)
    D.consume(phaseTuple(1, T++));
  D.finish();
  ASSERT_EQ(D.phases().size(), 2u);
  EXPECT_EQ(D.phases()[0].Accesses, 1000u);
  EXPECT_EQ(D.phases()[1].Accesses, 1000u);
  EXPECT_NE(D.phases()[0].ClassId, D.phases()[1].ClassId);
  EXPECT_EQ(D.phases()[0].DominantGroups.front().first, 0u);
  EXPECT_EQ(D.phases()[1].DominantGroups.front().first, 1u);
}

TEST(PhaseDetectorTest, RecurringPhasesShareAClass) {
  analysis::PhaseDetector D(100, 0.5);
  uint64_t T = 0;
  for (int Rep = 0; Rep != 3; ++Rep) {
    for (int I = 0; I != 500; ++I)
      D.consume(phaseTuple(0, T++));
    for (int I = 0; I != 500; ++I)
      D.consume(phaseTuple(1, T++));
  }
  D.finish();
  ASSERT_EQ(D.phases().size(), 6u);
  EXPECT_EQ(D.numClasses(), 2u);
  EXPECT_EQ(D.phases()[0].ClassId, D.phases()[2].ClassId);
  EXPECT_EQ(D.phases()[1].ClassId, D.phases()[3].ClassId);
}

TEST(PhaseDetectorTest, StablMixIsOnePhase) {
  analysis::PhaseDetector D(200, 0.5);
  Rng R(3);
  for (int I = 0; I != 4000; ++I)
    D.consume(phaseTuple(static_cast<omc::GroupId>(R.nextBelow(4)),
                         static_cast<uint64_t>(I)));
  D.finish();
  EXPECT_EQ(D.phases().size(), 1u);
  EXPECT_EQ(D.numClasses(), 1u);
}

TEST(PhaseDetectorTest, DetectsWorkloadInitVsSteadyState) {
  // The mcf analogue has a build phase (netbuf + init stores) and a
  // pricing phase; the detector should find more than one phase and a
  // bounded number of classes.
  core::ProfilingSession Session;
  analysis::PhaseDetector D(20000, 0.6);
  Session.addConsumer(&D);
  auto W = workloads::createMcfA();
  workloads::WorkloadConfig Config;
  W->run(Session.memory(), Session.registry(), Config);
  Session.finish();
  EXPECT_GE(D.phases().size(), 2u);
  EXPECT_LE(D.numClasses(), 8u);
  uint64_t Sum = 0;
  for (const auto &P : D.phases())
    Sum += P.Accesses;
  EXPECT_GT(Sum, 100000u);
}

//===----------------------------------------------------------------------===//
// LEAP profile serialization
//===----------------------------------------------------------------------===//

TEST(LeapProfileDataTest, RoundTripOnWorkloadProfile) {
  core::ProfilingSession Session;
  leap::LeapProfiler Leap;
  Session.addConsumer(&Leap);
  auto W = workloads::createListTraversal();
  workloads::WorkloadConfig Config;
  W->run(Session.memory(), Session.registry(), Config);
  Session.finish();

  auto Data = leap::LeapProfileData::fromProfiler(Leap);
  auto Bytes = Data.serialize();
  EXPECT_FALSE(Bytes.empty());
  leap::LeapProfileData Back;
  std::string Err;
  ASSERT_TRUE(leap::LeapProfileData::deserialize(Bytes, Back, Err)) << Err;
  EXPECT_TRUE(Data == Back);
  EXPECT_EQ(Back.substreams().size(), Data.substreams().size());
  EXPECT_EQ(Back.instructions().size(), Data.instructions().size());
}

TEST(LeapProfileDataTest, CapturesOverflowSummaries) {
  leap::LeapProfiler Leap(/*MaxLmads=*/2);
  Rng R(5);
  for (int I = 0; I != 500; ++I)
    Leap.consume(core::OrTuple{1, 0, R.nextBelow(100),
                               R.nextBelow(64) * 8,
                               static_cast<uint64_t>(I), false, 8});
  auto Data = leap::LeapProfileData::fromProfiler(Leap);
  leap::LeapProfileData Back;
  std::string Err;
  ASSERT_TRUE(leap::LeapProfileData::deserialize(Data.serialize(), Back, Err))
      << Err;
  const auto &Sub = Back.substreams().begin()->second;
  EXPECT_GT(Sub.Overflow.Dropped, 0u);
  EXPECT_EQ(Sub.TotalPoints, 500u);
}

//===----------------------------------------------------------------------===//
// Union conflict counting
//===----------------------------------------------------------------------===//

namespace {

lmad::Lmad mk(int64_t Obj, int64_t ObjS, int64_t Off, int64_t OffS,
              int64_t T, int64_t TS, uint64_t Count) {
  lmad::Lmad L;
  L.Dims = 3;
  L.Start = {Obj, Off, T};
  L.Stride = {ObjS, OffS, TS};
  L.Count = Count;
  return L;
}

/// How many load executions conflict with at least one store in
/// \p Stores, by enumeration.
uint64_t bruteUnion(const std::vector<lmad::Lmad> &Stores,
                    const lmad::Lmad &Load) {
  uint64_t N = 0;
  for (uint64_t K2 = 0; K2 != Load.Count; ++K2) {
    bool Conflict = false;
    for (const auto &St : Stores)
      for (uint64_t K1 = 0; K1 != St.Count && !Conflict; ++K1)
        Conflict = St.at(K1, 0) == Load.at(K2, 0) &&
                   St.at(K1, 1) == Load.at(K2, 1) &&
                   St.at(K1, 2) < Load.at(K2, 2);
    N += Conflict;
  }
  return N;
}

} // namespace

TEST(UnionConflictsTest, OverlappingStoreFragmentsCountOnce) {
  // Two store sweeps write the same offsets before one load sweep: each
  // load conflicts with both, but must be counted once.
  std::vector<lmad::Lmad> Stores = {mk(0, 0, 0, 8, 0, 1, 50),
                                    mk(0, 0, 0, 8, 100, 1, 50)};
  lmad::Lmad Load = mk(0, 0, 0, 8, 1000, 1, 50);
  std::vector<analysis::ConflictRun> Runs;
  for (const auto &St : Stores)
    analysis::collectConflictRuns(St, Load, Runs);
  EXPECT_EQ(analysis::countUnionConflicts(Runs), 50u);
  EXPECT_EQ(bruteUnion(Stores, Load), 50u);
}

TEST(UnionConflictsTest, DisjointFragmentsSum) {
  std::vector<lmad::Lmad> Stores = {mk(0, 0, 0, 8, 0, 1, 25),
                                    mk(0, 0, 200, 8, 100, 1, 25)};
  lmad::Lmad Load = mk(0, 0, 0, 8, 1000, 1, 50);
  std::vector<analysis::ConflictRun> Runs;
  for (const auto &St : Stores)
    analysis::collectConflictRuns(St, Load, Runs);
  EXPECT_EQ(analysis::countUnionConflicts(Runs), bruteUnion(Stores, Load));
}

TEST(UnionConflictsTest, MatchesBruteForceOnRandomFragments) {
  Rng R(17);
  for (int Trial = 0; Trial != 800; ++Trial) {
    std::vector<lmad::Lmad> Stores;
    unsigned NumStores = 1 + R.nextBelow(4);
    for (unsigned S = 0; S != NumStores; ++S)
      Stores.push_back(mk(R.nextInRange(0, 3), R.nextInRange(-1, 1),
                          R.nextInRange(0, 20) * 4,
                          R.nextInRange(-2, 2) * 4,
                          R.nextInRange(0, 40), R.nextInRange(0, 3),
                          1 + R.nextBelow(10)));
    lmad::Lmad Load = mk(R.nextInRange(0, 3), R.nextInRange(-1, 1),
                         R.nextInRange(0, 20) * 4,
                         R.nextInRange(-2, 2) * 4,
                         R.nextInRange(0, 40), R.nextInRange(0, 3),
                         1 + R.nextBelow(10));
    std::vector<analysis::ConflictRun> Runs;
    for (const auto &St : Stores)
      analysis::collectConflictRuns(St, Load, Runs);
    uint64_t Got = analysis::countUnionConflicts(Runs);
    uint64_t Want = bruteUnion(Stores, Load);
    // Unit-step runs deduplicate exactly; coarser-step overlap may
    // overcount (documented upper bound). Require exactness when all
    // runs are unit-step, and the bound otherwise.
    bool AllUnit = true;
    for (const auto &Run : Runs)
      AllUnit &= Run.Step == 1 || Run.Lo == Run.Hi;
    if (AllUnit)
      ASSERT_EQ(Got, Want) << "trial " << Trial;
    else
      ASSERT_GE(Got, Want) << "trial " << Trial;
  }
}

TEST(UnionConflictsTest, ConflictRunSize) {
  analysis::ConflictRun R1{0, 9, 1};
  EXPECT_EQ(R1.size(), 10u);
  analysis::ConflictRun R2{0, 9, 3}; // 0, 3, 6, 9.
  EXPECT_EQ(R2.size(), 4u);
  analysis::ConflictRun R3{5, 5, 7};
  EXPECT_EQ(R3.size(), 1u);
}

//===----------------------------------------------------------------------===//
// OMC translation cache
//===----------------------------------------------------------------------===//

TEST(OmcCacheTest, FreeInvalidatesCachedObject) {
  omc::ObjectManager O;
  O.onAlloc(poolAlloc(0, 0x1000, 64, 0));
  ASSERT_TRUE(O.translate(0x1000)); // Warm the cache.
  O.onFree(trace::FreeEvent{0x1000, 1});
  EXPECT_FALSE(O.translate(0x1010)) << "stale cache hit after free";
}

TEST(OmcCacheTest, ReuseAfterFreeTranslatesToNewObject) {
  omc::ObjectManager O;
  O.onAlloc(poolAlloc(0, 0x1000, 64, 0));
  ASSERT_TRUE(O.translate(0x1008));
  O.onFree(trace::FreeEvent{0x1000, 1});
  O.onAlloc(poolAlloc(1, 0x1000, 64, 2));
  auto T = O.translate(0x1008);
  ASSERT_TRUE(T);
  EXPECT_EQ(T->Group, O.groupForSite(1));
  EXPECT_EQ(T->Object, 0u);
}

//===----------------------------------------------------------------------===//
// OMSG archive
//===----------------------------------------------------------------------===//

TEST(OmsgArchiveTest, RoundTripWithAuxTable) {
  core::ProfilingSession Session;
  whomp::WhompProfiler Whomp;
  Session.addConsumer(&Whomp);
  auto W = workloads::createListTraversal();
  workloads::WorkloadConfig Config;
  W->run(Session.memory(), Session.registry(), Config);
  Session.finish();

  auto Archive = whomp::OmsgArchive::build(Whomp, &Session.omc());
  ASSERT_EQ(Archive.numDimensions(), 4u);
  EXPECT_GT(Archive.accessCount(), 0u);
  EXPECT_FALSE(Archive.objects().empty());

  auto Bytes = Archive.serialize();
  whomp::OmsgArchive Back;
  std::string Err;
  ASSERT_TRUE(whomp::OmsgArchive::deserialize(Bytes, Back, Err)) << Err;
  EXPECT_TRUE(Archive == Back);
  EXPECT_EQ(Back.accessCount(), Whomp.tuplesSeen());
  for (size_t D = 0; D != Back.numDimensions(); ++D)
    EXPECT_EQ(Back.expandDimension(D), Archive.expandDimension(D)) << D;
}

TEST(OmsgArchiveTest, CursorsExpandToLiveGrammars) {
  core::ProfilingSession Session;
  whomp::WhompProfiler Whomp;
  Session.addConsumer(&Whomp);
  workloads::WorkloadConfig Config;
  workloads::createWorkloadByName("175.vpr-a")
      ->run(Session.memory(), Session.registry(), Config);
  Session.finish();

  auto Archive = whomp::OmsgArchive::build(Whomp, &Session.omc());
  whomp::OmsgArchive Back;
  std::string Err;
  ASSERT_TRUE(whomp::OmsgArchive::deserialize(Archive.serialize(), Back, Err))
      << Err;
  const core::Dimension Dims[] = {
      core::Dimension::Instruction, core::Dimension::Group,
      core::Dimension::Object, core::Dimension::Offset};
  ASSERT_EQ(Back.numDimensions(), 4u);
  for (size_t D = 0; D != 4; ++D) {
    std::vector<uint64_t> Live = Whomp.imageFor(Dims[D]).expandAll();
    ASSERT_EQ(Back.grammarImages()[D].length(), Live.size()) << D;
    std::vector<uint64_t> Pulled;
    for (sequitur::ImageCursor C = Back.cursor(D); !C.done();)
      Pulled.push_back(C.next());
    EXPECT_EQ(Pulled, Live) << "dimension " << D;
    EXPECT_EQ(Archive.expandDimension(D), Live) << "dimension " << D;
  }
  EXPECT_EQ(Back.accessCount(), Whomp.tuplesSeen());
}

TEST(OmsgArchiveTest, AuxTableOmitsRawAddresses) {
  // The archive's auxiliary rows carry lifetimes and sizes, never raw
  // bases — the run-dependent data stays out of the invariant profile.
  core::ProfilingSession A(memsim::AllocPolicy::FirstFit, 1);
  core::ProfilingSession B(memsim::AllocPolicy::Segregated, 999);
  whomp::WhompProfiler WhompA, WhompB;
  A.addConsumer(&WhompA);
  B.addConsumer(&WhompB);
  workloads::WorkloadConfig Config;
  workloads::createListTraversal()->run(A.memory(), A.registry(), Config);
  workloads::createListTraversal()->run(B.memory(), B.registry(), Config);
  A.finish();
  B.finish();
  auto ArchiveA = whomp::OmsgArchive::build(WhompA, &A.omc());
  auto ArchiveB = whomp::OmsgArchive::build(WhompB, &B.omc());
  EXPECT_TRUE(ArchiveA == ArchiveB)
      << "the whole archive must be environment-invariant";
  EXPECT_EQ(ArchiveA.serialize(), ArchiveB.serialize());
}

TEST(OmsgArchiveTest, BuildWithoutOmcHasNoAux) {
  core::ProfilingSession Session;
  whomp::WhompProfiler Whomp;
  Session.addConsumer(&Whomp);
  workloads::WorkloadConfig Config;
  workloads::createListTraversal()->run(Session.memory(),
                                        Session.registry(), Config);
  Session.finish();
  auto Archive = whomp::OmsgArchive::build(Whomp);
  EXPECT_TRUE(Archive.objects().empty());
  whomp::OmsgArchive Back;
  std::string Err;
  ASSERT_TRUE(whomp::OmsgArchive::deserialize(Archive.serialize(), Back, Err))
      << Err;
  EXPECT_TRUE(Archive == Back);
}
