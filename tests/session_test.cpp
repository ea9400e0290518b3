//===- tests/session_test.cpp - Session engine tests ---------------------===//
//
// The contract under test: the session engine multiplexes N independent
// trace streams without letting them observe each other. Per-session
// profiles are byte-identical whether a trace is replayed serially by
// the CLI path, streamed alone through a SessionManager, or interleaved
// block-by-block with other sessions over 1, 2 or 8 scheduler threads —
// and a corrupt stream, a full ingest queue, or an evicted neighbor
// never perturbs anyone else's bytes.
//
//===----------------------------------------------------------------------===//

#include "core/ProfilingSession.h"
#include "session/Client.h"
#include "session/Daemon.h"
#include "session/ProfileSession.h"
#include "session/SessionManager.h"
#include "session/Wire.h"
#include "support/MappedArray.h"
#include "support/Version.h"
#include "support/WorkerPool.h"
#include "telemetry/Registry.h"
#include "traceio/TraceReader.h"
#include "traceio/TraceWriter.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

using namespace orp;
using session::SessionArtifacts;
using session::SessionId;
using session::SubmitStatus;
using support::ScopedRole;

namespace {

std::string tempPath(const std::string &Name) {
  return testing::TempDir() + "orp_session_" + Name;
}

/// Records \p WorkloadName (at \p Scale, with a small block size so the
/// trace has many independently-schedulable blocks) to \p Path.
void recordTrace(const std::string &WorkloadName, const std::string &Path,
                 uint64_t Scale = 1, size_t BlockBytes = 2048) {
  core::ProfilingSession Session(memsim::AllocPolicy::FirstFit, /*Seed=*/7);
  traceio::TraceWriter Writer(Path, Session.registry(),
                              memsim::AllocPolicy::FirstFit, /*Seed=*/7,
                              BlockBytes);
  ASSERT_TRUE(Writer.ok()) << Writer.error();
  Session.addRawSink(&Writer);
  auto W = workloads::createWorkloadByName(WorkloadName);
  ASSERT_TRUE(W);
  workloads::WorkloadConfig Config;
  Config.Scale = Scale;
  W->run(Session.memory(), Session.registry(), Config);
  Session.finish();
  ASSERT_TRUE(Writer.close()) << Writer.error();
}

/// The serial ground truth: one ProfileSession fed by a whole-trace
/// replay on this thread (the `orp-trace replay` path).
SessionArtifacts serialArtifacts(const std::string &TracePath) {
  traceio::TraceReader Reader;
  EXPECT_TRUE(Reader.open(TracePath)) << Reader.error();
  session::ProfileSession Session("serial", session::recordedConfig(Reader));
  EXPECT_TRUE(Session.replayFrom(Reader)) << Session.error();
  return Session.finalize();
}

/// Opens \p TracePath as a manager session (registering the recorded
/// probe tables the way an OPEN frame would).
SessionId openFor(session::SessionManager &Mgr,
                  traceio::TraceReader &Reader, const std::string &Name)
    ORP_REQUIRES(session::SessionControlRole) {
  return Mgr.open(Name, session::recordedConfig(Reader),
                  Reader.instructions(), Reader.allocSites());
}

/// Submits block \p Index of \p Reader, spinning out backpressure.
void submitBlock(session::SessionManager &Mgr, SessionId Id,
                 traceio::TraceReader &Reader, size_t Index)
    ORP_REQUIRES(session::SessionControlRole) {
  traceio::TraceReader::RawBlock B = Reader.rawBlock(Index);
  SubmitStatus St;
  while ((St = Mgr.submitBlock(Id, B.Payload, B.PayloadLen, B.EventCount,
                               B.Crc, Reader.info().Version)) ==
         SubmitStatus::WouldBlock) {
  }
  ASSERT_EQ(St, SubmitStatus::Ok);
}

/// Spins until \p Done holds for \p Id's stats; false when \p Id is
/// gone.
template <typename Pred>
bool waitForStats(session::SessionManager &Mgr, SessionId Id, Pred Done)
    ORP_REQUIRES(session::SessionControlRole) {
  session::SessionStats Stats;
  do {
    if (!Mgr.stats(Id, Stats))
      return false;
  } while (!Done(Stats));
  return true;
}

bool isIdle(const session::SessionStats &S) { return S.Pending == 0; }
bool isReleased(const session::SessionStats &S) { return S.IndexesReleased; }

uint64_t globalCounter(const std::string &Name) {
  return telemetry::Registry::global().snapshot().counter(Name);
}

void expectSameProfile(const SessionArtifacts &A, const SessionArtifacts &B) {
  EXPECT_FALSE(A.Failed) << A.Error;
  EXPECT_FALSE(B.Failed) << B.Error;
  EXPECT_EQ(A.Events, B.Events);
  EXPECT_EQ(A.Omsg, B.Omsg);
  EXPECT_EQ(A.Leap, B.Leap);
}

} // namespace

//===----------------------------------------------------------------------===//
// Lifecycle
//===----------------------------------------------------------------------===//

TEST(SessionManagerTest, OpenCloseLifecycle) {
  // The test's thread is the manager's control thread.
  ScopedRole Role(session::SessionControlRole);
  session::ManagerConfig Config;
  session::SessionManager Mgr(Config);
  EXPECT_EQ(Mgr.numLiveSessions(), 0u);

  SessionId A = Mgr.open("a", session::SessionConfig{}, {}, {});
  SessionId B = Mgr.open("b", session::SessionConfig{}, {}, {});
  EXPECT_NE(A, B);
  EXPECT_EQ(Mgr.numLiveSessions(), 2u);

  session::SessionStats Stats;
  ASSERT_TRUE(Mgr.stats(A, Stats));
  EXPECT_EQ(Stats.Name, "a");
  EXPECT_EQ(Stats.Events, 0u);
  EXPECT_FALSE(Stats.Failed);
  EXPECT_GT(Stats.MemEstimateBytes, 0u);

  SessionArtifacts ArtA = Mgr.close(A);
  EXPECT_EQ(ArtA.Name, "a");
  EXPECT_FALSE(ArtA.Failed);
  EXPECT_FALSE(ArtA.Omsg.empty()); // Empty profiles still serialize.
  EXPECT_EQ(Mgr.numLiveSessions(), 1u);
  EXPECT_FALSE(Mgr.stats(A, Stats));

  // Closing an unknown id reports, not crashes.
  SessionArtifacts Unknown = Mgr.close(A);
  EXPECT_TRUE(Unknown.Failed);
  EXPECT_NE(Unknown.Error.find("unknown session id"), std::string::npos);

  EXPECT_TRUE(Mgr.abort(B));
  EXPECT_FALSE(Mgr.abort(B));
  EXPECT_EQ(Mgr.numLiveSessions(), 0u);
}

TEST(SessionManagerTest, AnonymousSessionsGetGeneratedNames) {
  ScopedRole Role(session::SessionControlRole);
  session::SessionManager Mgr(session::ManagerConfig{});
  SessionId Id = Mgr.open("", session::SessionConfig{}, {}, {});
  session::SessionStats Stats;
  ASSERT_TRUE(Mgr.stats(Id, Stats));
  EXPECT_EQ(Stats.Name, "s" + std::to_string(Id));
  Mgr.abort(Id);
}

//===----------------------------------------------------------------------===//
// Determinism goldens: interleaving and scheduler width change nothing
//===----------------------------------------------------------------------===//

TEST(SessionManagerTest, InterleavedSessionsMatchSerialReplay) {
  ScopedRole Role(session::SessionControlRole);
  std::string PathA = tempPath("ilv_a.orpt");
  std::string PathB = tempPath("ilv_b.orpt");
  recordTrace("list-traversal", PathA, /*Scale=*/1);
  recordTrace("list-traversal", PathB, /*Scale=*/2);
  SessionArtifacts SerialA = serialArtifacts(PathA);
  SessionArtifacts SerialB = serialArtifacts(PathB);

  for (unsigned Threads : {1u, 2u, 8u}) {
    traceio::TraceReader ReaderA, ReaderB;
    ASSERT_TRUE(ReaderA.open(PathA)) << ReaderA.error();
    ASSERT_TRUE(ReaderB.open(PathB)) << ReaderB.error();
    ASSERT_GT(ReaderA.numEventBlocks(), 4u)
        << "trace too small to interleave meaningfully";

    session::ManagerConfig Config;
    Config.Threads = Threads;
    Config.IngestQueueCapacity = 4;
    session::SessionManager Mgr(Config);
    SessionId A = openFor(Mgr, ReaderA, "a");
    SessionId B = openFor(Mgr, ReaderB, "b");

    // Strict block-by-block interleave: worst case for any scheduler
    // that accidentally shares state across sessions.
    size_t NumA = ReaderA.numEventBlocks(), NumB = ReaderB.numEventBlocks();
    for (size_t I = 0; I != NumA || I != NumB; ++I) {
      if (I < NumA)
        submitBlock(Mgr, A, ReaderA, I);
      if (I < NumB)
        submitBlock(Mgr, B, ReaderB, I);
      if (I >= NumA && I >= NumB)
        break;
    }
    SessionArtifacts ArtA = Mgr.close(A);
    SessionArtifacts ArtB = Mgr.close(B);
    expectSameProfile(ArtA, SerialA);
    expectSameProfile(ArtB, SerialB);
  }
  std::remove(PathA.c_str());
  std::remove(PathB.c_str());
}

TEST(SessionManagerTest, SnapshotsReadModuleGaugesPublishedByShards) {
  // A telemetry snapshot runs on the control thread while shards append.
  // It must see each session's CDC/OMC, WHOMP and LEAP gauges only as
  // the owning shard published them after a block (a TSan build checks
  // that no module state is read across threads), and once the session
  // is drained those gauges equal a serial replay's.
  ScopedRole Role(session::SessionControlRole);
  std::string Path = tempPath("gauges.orpt");
  recordTrace("list-traversal", Path, /*Scale=*/2);
  const std::vector<std::string> Names = {"cdc.translated",
                                         "omc.translations",
                                         "omc.live_objects",
                                         "whomp.tuples",
                                         "whomp.offset.rules",
                                         "whomp.offset.rules_created",
                                         "whomp.offset.rules_inlined",
                                         "whomp.offset.digram_checks",
                                         "whomp.offset.matches",
                                         "whomp.instr.matches",
                                         "whomp.offset.index_slots",
                                         "whomp.instr.index_slots",
                                         "leap.tuples",
                                         "leap.substreams"};
  std::map<std::string, int64_t> Serial;
  {
    traceio::TraceReader Reader;
    ASSERT_TRUE(Reader.open(Path)) << Reader.error();
    telemetry::Registry Local;
    session::ProfileSession Session("serial", session::recordedConfig(Reader),
                                    Local);
    ASSERT_TRUE(Session.replayFrom(Reader)) << Session.error();
    telemetry::MetricsSnapshot Snap = Local.snapshot();
    for (const std::string &N : Names)
      Serial[N] = Snap.gauge(N);
  }
  ASSERT_GT(Serial["whomp.tuples"], 0);
  ASSERT_GT(Serial["whomp.offset.rules_created"], 0);
  ASSERT_GT(Serial["whomp.offset.digram_checks"], Serial["whomp.tuples"]);
  ASSERT_GE(Serial["whomp.offset.index_slots"], 64);

  traceio::TraceReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();
  session::ManagerConfig Config;
  Config.Threads = 2;
  session::SessionManager Mgr(Config);
  SessionId Id = openFor(Mgr, Reader, "gauges");
  for (size_t I = 0; I != Reader.numEventBlocks(); ++I) {
    submitBlock(Mgr, Id, Reader, I);
    // Mid-flight: the shard is appending this block right now.
    telemetry::MetricsSnapshot Snap = telemetry::Registry::global().snapshot();
    EXPECT_LE(Snap.gauge("whomp.tuples"), Serial["whomp.tuples"]);
  }
  session::SessionStats Stats;
  do
    ASSERT_TRUE(Mgr.stats(Id, Stats));
  while (Stats.Pending != 0);
  telemetry::MetricsSnapshot Snap = telemetry::Registry::global().snapshot();
  for (const std::string &N : Names)
    EXPECT_EQ(Snap.gauge(N), Serial[N]) << N;
  Mgr.abort(Id);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Backpressure
//===----------------------------------------------------------------------===//

TEST(SessionManagerTest, FullIngestQueueReportsWouldBlock) {
  ScopedRole Role(session::SessionControlRole);
  std::string Path = tempPath("bp.orpt");
  recordTrace("list-traversal", Path);
  SessionArtifacts Serial = serialArtifacts(Path);

  traceio::TraceReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();
  ASSERT_GT(Reader.numEventBlocks(), 6u);

  session::ManagerConfig Config;
  Config.Threads = 1;
  Config.IngestQueueCapacity = 2;
  session::SessionManager Mgr(Config);
  SessionId Id = openFor(Mgr, Reader, "bp");

  // Park the (only) shard worker so nothing drains.
  support::SpscQueue<int> Gate(1);
  ASSERT_EQ(Mgr.submitGate(Id, &Gate), SubmitStatus::Ok);

  // With the worker parked, at most capacity + 1 blocks fit (one slot
  // frees once the worker pops the gate item itself); then WouldBlock.
  size_t Accepted = 0;
  while (Accepted < Reader.numEventBlocks()) {
    traceio::TraceReader::RawBlock B = Reader.rawBlock(Accepted);
    SubmitStatus St = Mgr.submitBlock(Id, B.Payload, B.PayloadLen,
                                      B.EventCount, B.Crc,
                                      Reader.info().Version);
    if (St == SubmitStatus::WouldBlock)
      break;
    ASSERT_EQ(St, SubmitStatus::Ok);
    ++Accepted;
  }
  EXPECT_GE(Accepted, Config.IngestQueueCapacity - 1);
  EXPECT_LE(Accepted, Config.IngestQueueCapacity + 1);
  uint64_t Stalls = telemetry::Registry::global().snapshot().counter(
      "session.submit_backpressure");
  EXPECT_GE(Stalls, 1u);

  // Release the worker; the stalled stream finishes normally and the
  // profile is unaffected by ever having been backpressured.
  ASSERT_TRUE(Gate.push(1));
  for (size_t I = Accepted; I != Reader.numEventBlocks(); ++I)
    submitBlock(Mgr, Id, Reader, I);
  SessionArtifacts Art = Mgr.close(Id);
  expectSameProfile(Art, Serial);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Eviction under a memory budget
//===----------------------------------------------------------------------===//

TEST(SessionManagerTest, IdleLruSessionEvictedUnderBudget) {
  ScopedRole Role(session::SessionControlRole);
  std::string Path = tempPath("evict.orpt");
  recordTrace("list-traversal", Path);
  SessionArtifacts Serial = serialArtifacts(Path);

  traceio::TraceReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();

  session::ManagerConfig Config;
  Config.Threads = 2;
  Config.MemoryBudgetBytes = 1; // Any two sessions exceed this.
  session::SessionManager Mgr(Config);

  std::vector<std::pair<SessionId, SessionArtifacts>> Evicted;
  Mgr.setEvictionHandler([&](SessionId Id, SessionArtifacts A) {
    Evicted.emplace_back(Id, std::move(A));
  });

  SessionId A = openFor(Mgr, Reader, "victim");
  for (size_t I = 0; I != Reader.numEventBlocks(); ++I)
    submitBlock(Mgr, A, Reader, I);
  // Wait until A is idle (eviction only takes idle victims).
  session::SessionStats Stats;
  do {
    ASSERT_TRUE(Mgr.stats(A, Stats));
  } while (Stats.Pending != 0);

  // Opening a second session busts the budget; idle LRU "victim" goes.
  SessionId B = Mgr.open("fresh", session::SessionConfig{}, {}, {});
  ASSERT_EQ(Evicted.size(), 1u);
  EXPECT_EQ(Evicted[0].first, A);
  EXPECT_EQ(Evicted[0].second.Name, "victim");
  expectSameProfile(Evicted[0].second, Serial); // Evict == clean close.
  EXPECT_EQ(Mgr.numLiveSessions(), 1u);
  EXPECT_FALSE(Mgr.stats(A, Stats));

  // The survivor is never evicted below two live sessions, no matter
  // how far over budget the manager sits.
  EXPECT_EQ(Mgr.enforceBudget(), 0u);
  EXPECT_TRUE(Mgr.stats(B, Stats));
  Mgr.abort(B);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Idle sessions give their digram indexes back
//===----------------------------------------------------------------------===//

TEST(SessionManagerTest, IdleSessionReleasesItsIndexesAndMatchesSerialReplay) {
  // A pauses halfway while B streams more events than A's grammars hold
  // symbols: A's shard releases A's indexes, its gauge says so, and A's
  // next block rebuilds them. Both profiles equal a serial replay's.
  ScopedRole Role(session::SessionControlRole);
  std::string PathA = tempPath("idle_a.orpt");
  std::string PathB = tempPath("idle_b.orpt");
  recordTrace("list-traversal", PathA, /*Scale=*/1);
  recordTrace("list-traversal", PathB, /*Scale=*/4);
  SessionArtifacts SerialA = serialArtifacts(PathA);
  SessionArtifacts SerialB = serialArtifacts(PathB);

  traceio::TraceReader ReaderA, ReaderB;
  ASSERT_TRUE(ReaderA.open(PathA)) << ReaderA.error();
  ASSERT_TRUE(ReaderB.open(PathB)) << ReaderB.error();
  const size_t NumA = ReaderA.numEventBlocks();
  ASSERT_GT(NumA, 4u);
  const uint64_t ReleasesBefore = globalCounter("session.index_releases");
  const uint64_t RebuildsBefore = globalCounter("session.index_rebuilds");

  session::ManagerConfig Config;
  Config.Threads = 2;
  session::SessionManager Mgr(Config);
  SessionId A = openFor(Mgr, ReaderA, "idle_a");
  SessionId B = openFor(Mgr, ReaderB, "idle_b");
  for (size_t I = 0; I != NumA / 2; ++I)
    submitBlock(Mgr, A, ReaderA, I);
  ASSERT_TRUE(waitForStats(Mgr, A, isIdle));
  session::SessionStats Held;
  ASSERT_TRUE(Mgr.stats(A, Held));
  EXPECT_FALSE(Held.IndexesReleased);
  for (size_t I = 0; I != ReaderB.numEventBlocks(); ++I)
    submitBlock(Mgr, B, ReaderB, I);
  ASSERT_TRUE(waitForStats(Mgr, A, isReleased));
  session::SessionStats Released;
  ASSERT_TRUE(Mgr.stats(A, Released));
  EXPECT_LT(Released.MemEstimateBytes, Held.MemEstimateBytes);
  EXPECT_EQ(telemetry::Registry::global().snapshot().gauge(
                "session.idle_a.released"),
            1);
  for (size_t I = NumA / 2; I != NumA; ++I)
    submitBlock(Mgr, A, ReaderA, I);
  ASSERT_TRUE(waitForStats(Mgr, A, isIdle));
  EXPECT_TRUE(waitForStats(Mgr, A, [](const session::SessionStats &S) {
    return !S.IndexesReleased;
  })) << "the next block rebuilt them";
  EXPECT_GE(globalCounter("session.index_releases"), ReleasesBefore + 1);
  EXPECT_GE(globalCounter("session.index_rebuilds"), RebuildsBefore + 1);
  expectSameProfile(Mgr.close(A), SerialA);
  expectSameProfile(Mgr.close(B), SerialB);
  std::remove(PathA.c_str());
  std::remove(PathB.c_str());
}

TEST(SessionManagerTest, BudgetReleasesAnIdleIndexInsteadOfEvicting) {
  // A budget below the two sessions' estimates but above them without
  // A's indexes used to evict idle A. Now it releases A's indexes, A's
  // estimate falls by exactly their mapped bytes (at once, and again
  // when the shard has run the release), and A lives on to a clean close.
  ScopedRole Role(session::SessionControlRole);
  std::string Path = tempPath("budget_release.orpt");
  recordTrace("list-traversal", Path, /*Scale=*/2);
  SessionArtifacts Serial = serialArtifacts(Path);
  traceio::TraceReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();

  // A replayed session's estimate and index bytes, and a fresh one's
  // estimate: deterministic, so the managed sessions' are the same.
  size_t Replayed = 0, IndexBytes = 0, Fresh = 0;
  {
    session::ProfileSession Probe("probe", session::recordedConfig(Reader));
    ASSERT_TRUE(Probe.replayFrom(Reader)) << Probe.error();
    Replayed = Probe.memoryEstimateBytes();
    IndexBytes = Probe.indexBytes();
    Fresh = session::ProfileSession("fresh", session::SessionConfig{})
                .memoryEstimateBytes();
  }
  ASSERT_GT(IndexBytes, 0u);

  session::ManagerConfig Config;
  Config.Threads = 2;
  Config.MemoryBudgetBytes = Replayed + Fresh - IndexBytes / 2;
  session::SessionManager Mgr(Config);
  std::vector<SessionId> Evicted;
  Mgr.setEvictionHandler(
      [&](SessionId Id, SessionArtifacts) { Evicted.push_back(Id); });
  // Alone, A meets no budget action: none runs below two live sessions.
  SessionId A = openFor(Mgr, Reader, "kept");
  for (size_t I = 0; I != Reader.numEventBlocks(); ++I)
    submitBlock(Mgr, A, Reader, I);
  ASSERT_TRUE(waitForStats(Mgr, A, isIdle));
  session::SessionStats Before;
  ASSERT_TRUE(Mgr.stats(A, Before));
  ASSERT_EQ(Before.MemEstimateBytes, Replayed);
  EXPECT_FALSE(Before.IndexesReleased);

  SessionId B = Mgr.open("fresh", session::SessionConfig{}, {}, {});
  EXPECT_TRUE(Evicted.empty()) << "releasing A's indexes met the budget";
  EXPECT_EQ(Mgr.numLiveSessions(), 2u);
  session::SessionStats After;
  ASSERT_TRUE(Mgr.stats(A, After));
  EXPECT_EQ(After.MemEstimateBytes, Replayed - IndexBytes);
  EXPECT_LE(Mgr.totalMemoryEstimateBytes(), Config.MemoryBudgetBytes);
  ASSERT_TRUE(waitForStats(Mgr, A, isReleased));
  ASSERT_TRUE(Mgr.stats(A, After));
  EXPECT_EQ(After.MemEstimateBytes, Replayed - IndexBytes)
      << "the shard's refreshed estimate";
  expectSameProfile(Mgr.close(A), Serial);
  Mgr.abort(B);
  std::remove(Path.c_str());
}

TEST(SessionManagerTest, SubmitsRaceIndexReleases) {
  // A gets one block for every eight of B's, more events than A's
  // grammars hold symbols, so A turns idle after nearly every block, its
  // release is queued while B streams, and A's next
  // block is submitted whenever the control thread gets to it: before
  // the shard runs the release, while it runs it, or after. (CI runs
  // this under TSan.) The profiles must not notice.
  ScopedRole Role(session::SessionControlRole);
  std::string PathA = tempPath("race_a.orpt");
  std::string PathB = tempPath("race_b.orpt");
  recordTrace("list-traversal", PathA, /*Scale=*/1);
  recordTrace("list-traversal", PathB, /*Scale=*/8);
  SessionArtifacts SerialA = serialArtifacts(PathA);
  SessionArtifacts SerialB = serialArtifacts(PathB);

  for (unsigned Threads : {1u, 2u}) {
    traceio::TraceReader ReaderA, ReaderB;
    ASSERT_TRUE(ReaderA.open(PathA)) << ReaderA.error();
    ASSERT_TRUE(ReaderB.open(PathB)) << ReaderB.error();
    const uint64_t ReleasesBefore = globalCounter("session.index_releases");
    session::ManagerConfig Config;
    Config.Threads = Threads;
    session::SessionManager Mgr(Config);
    SessionId A = openFor(Mgr, ReaderA, "race_a");
    SessionId B = openFor(Mgr, ReaderB, "race_b");
    const size_t NumA = ReaderA.numEventBlocks();
    const size_t NumB = ReaderB.numEventBlocks();
    for (size_t I = 0, J = 0; I != NumA || J != NumB;) {
      if (I != NumA)
        submitBlock(Mgr, A, ReaderA, I++);
      for (int K = 0; K != 8 && J != NumB; ++K)
        submitBlock(Mgr, B, ReaderB, J++);
    }
    expectSameProfile(Mgr.close(A), SerialA);
    expectSameProfile(Mgr.close(B), SerialB);
    EXPECT_GT(globalCounter("session.index_releases"), ReleasesBefore)
        << Threads << " shards";
  }
  std::remove(PathA.c_str());
  std::remove(PathB.c_str());
}

TEST(ProfileSessionTest, ReleasedIndexesLeaveTheEstimateByTheirBytes) {
  // releaseIndexes() gives back exactly the four grammars' mapped index
  // pages, and the next block maps as many again.
  std::string Path = tempPath("release_estimate.orpt");
  recordTrace("164.gzip-a", Path);
  traceio::TraceReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();
  session::ProfileSession Session("release", session::recordedConfig(Reader));
  ASSERT_TRUE(Session.replayFrom(Reader, 1, 0, Reader.numEventBlocks() - 1))
      << Session.error();
  const size_t Index = Session.indexBytes();
  const size_t Estimate = Session.memoryEstimateBytes();
  ASSERT_GT(Index, 0u);
  Session.releaseIndexes();
  EXPECT_TRUE(Session.indexesReleased());
  EXPECT_EQ(Session.indexBytes(), 0u);
  EXPECT_EQ(Session.memoryEstimateBytes(), Estimate - Index);
  ASSERT_TRUE(Session.replayFrom(Reader, 1, Reader.numEventBlocks() - 1))
      << Session.error();
  EXPECT_FALSE(Session.indexesReleased());
  EXPECT_GE(Session.indexBytes(), Index);
  std::remove(Path.c_str());
}

TEST(ProfileSessionTest, MemoryEstimateCountsGrammarFootprints) {
  // The estimate SessionManager's budget ranks sessions by must cover
  // the real bytes of the four WHOMP grammars (slabs plus digram-index
  // capacity) and grow as more blocks are replayed.
  std::string Path = tempPath("estimate.orpt");
  recordTrace("164.gzip-a", Path);
  traceio::TraceReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();
  ASSERT_GT(Reader.info().NumBlocks, 8u);
  session::ProfileSession Session("estimate", session::recordedConfig(Reader));
  ASSERT_NE(Session.whomp(), nullptr);

  auto GrammarBytes = [&] {
    size_t Bytes = 0;
    for (core::Dimension D :
         {core::Dimension::Instruction, core::Dimension::Group,
          core::Dimension::Object, core::Dimension::Offset})
      Bytes += Session.whomp()->grammarFor(D).footprintBytes();
    return Bytes;
  };
  const size_t Initial = Session.memoryEstimateBytes();
  EXPECT_GE(Initial, GrammarBytes());
  std::vector<size_t> Estimates;
  ASSERT_TRUE(Session.replayFrom(
      Reader, /*DecodeThreads=*/1, 0, ~static_cast<uint64_t>(0),
      [&](uint64_t) {
        size_t Est = Session.memoryEstimateBytes();
        EXPECT_GE(Est, GrammarBytes());
        Estimates.push_back(Est);
      }))
      << Session.error();
  ASSERT_EQ(Estimates.size(), Reader.info().NumBlocks);
  EXPECT_GT(Estimates.back(), Estimates.front());
  EXPECT_GT(Estimates.front(), Initial);
  // Every grammar has at least one symbol slab by now, so the grammar
  // share alone exceeds four 64 KiB slabs.
  EXPECT_GE(GrammarBytes(), 4u * 64 * 1024);
  std::remove(Path.c_str());
}

TEST(ProfileSessionTest, FinalizeGivesBackTheDigramIndexes) {
  // finalize() seals the four WHOMP grammars into their images: each then
  // holds its image alone, so the estimate trades their slabs, digram
  // indexes and wide tables for the images' bytes. Every reading a front
  // end takes after finalize() (sizes, the whomp.* gauges and counters,
  // and the rule statistics and dumps of the builders' serialized
  // images) equals the one it took before.
  std::string Path = tempPath("sealed.orpt");
  recordTrace("164.gzip-a", Path);
  traceio::TraceReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();
  telemetry::Registry Local;
  session::ProfileSession Session("sealed", session::recordedConfig(Reader),
                                  Local);
  ASSERT_TRUE(Session.replayFrom(Reader)) << Session.error();

  const core::Dimension Dims[] = {
      core::Dimension::Instruction, core::Dimension::Group,
      core::Dimension::Object, core::Dimension::Offset};
  struct Reading {
    std::vector<size_t> Sizes;
    uint64_t Tuples = 0;
    std::map<std::string, int64_t> Gauges;
    std::vector<sequitur::GrammarStats> Stats;
  };
  auto Read = [&] {
    Reading R;
    const whomp::OmsgSizes S = Session.whomp()->sizes();
    R.Sizes = {S.Instr, S.Group, S.Object, S.Offset};
    R.Tuples = Session.whomp()->tuplesSeen();
    for (const auto &G : Local.snapshot().Gauges)
      if (G.Name.rfind("whomp.", 0) == 0)
        R.Gauges[G.Name] = G.Value;
    for (core::Dimension D : Dims)
      R.Stats.push_back(Session.whomp()->compressorFor(D).stats());
    return R;
  };
  const Reading Before = Read();
  ASSERT_GT(Before.Gauges.count("whomp.offset.symbol_slabs"), 0u);
  ASSERT_GT(Before.Gauges.at("whomp.offset.symbol_slabs"), 0);

  size_t IndexBytes = 0, GrammarBytes = 0;
  std::vector<size_t> Slots;
  std::vector<std::vector<sequitur::RuleStats>> Rules;
  std::vector<std::string> Dumps;
  for (core::Dimension D : Dims) {
    const sequitur::SequiturGrammar &G = Session.whomp()->grammarFor(D);
    IndexBytes += G.indexBytes();
    GrammarBytes += G.footprintBytes();
    Slots.push_back(G.indexCapacity());
    sequitur::ParsedImage Parsed;
    std::string Err;
    ASSERT_TRUE(
        sequitur::parseImageChecked(G.serialize(), Parsed, Err, ~uint64_t(0)))
        << Err;
    Rules.push_back(Parsed.ruleStats());
    Dumps.push_back(Parsed.dump());
  }
  const size_t EstimateBefore = Session.memoryEstimateBytes();
  ASSERT_GT(IndexBytes, 0u);
  SessionArtifacts A = Session.finalize();
  ASSERT_FALSE(A.Failed) << A.Error;

  const Reading After = Read();
  EXPECT_EQ(After.Sizes, Before.Sizes);
  EXPECT_EQ(After.Tuples, Before.Tuples);
  EXPECT_EQ(After.Gauges.size(), Before.Gauges.size());
  for (const auto &[Name, Value] : Before.Gauges)
    EXPECT_EQ(After.Gauges.count(Name) ? After.Gauges.at(Name) : -1, Value)
        << Name;
  EXPECT_TRUE(After.Stats == Before.Stats);

  size_t ImageBytes = 0;
  for (size_t I = 0; I != 4; ++I) {
    const sequitur::GrammarImage &Image = Session.whomp()->imageFor(Dims[I]);
    EXPECT_TRUE(Image.ruleStats() == Rules[I]) << I;
    EXPECT_EQ(Image.dump(), Dumps[I]) << I;
    EXPECT_EQ(Image.stats().IndexSlots, Slots[I]);
    // The image's bytes: its capacity, which its serialization grew to
    // at most twice its size.
    EXPECT_GE(Image.footprintBytes(), Image.serializedSizeBytes());
    EXPECT_LT(Image.footprintBytes(), 2 * Image.serializedSizeBytes());
    ImageBytes += Image.footprintBytes();
  }
  // The estimate counts what the finalized session still holds: the
  // images where the slabs, indexes and wide tables were.
  EXPECT_LT(ImageBytes + IndexBytes, GrammarBytes);
  EXPECT_EQ(Session.memoryEstimateBytes() + GrammarBytes,
            EstimateBefore + ImageBytes);
  std::remove(Path.c_str());
}

TEST(ProfileSessionTest, IndexFootprintIsItsMappedPages) {
  // The index term of each grammar's footprint, and so of
  // memoryEstimateBytes(), is the bytes its digram index maps: nothing
  // after construction, the page-rounded slot arrays after the replay,
  // nothing again after finalize().
  std::string Path = tempPath("mapped_index.orpt");
  recordTrace("164.gzip-a", Path);
  traceio::TraceReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();
  session::ProfileSession Session("mapped", session::recordedConfig(Reader));
  const core::Dimension Dims[] = {
      core::Dimension::Instruction, core::Dimension::Group,
      core::Dimension::Object, core::Dimension::Offset};
  EXPECT_EQ(Session.indexBytes(), 0u) << "construction maps no index";

  ASSERT_TRUE(Session.replayFrom(Reader)) << Session.error();
  const size_t Page = support::pageSize();
  for (core::Dimension D : Dims) {
    const sequitur::SequiturGrammar &G = Session.whomp()->grammarFor(D);
    EXPECT_EQ(G.indexBytes(),
              (G.indexCapacity() * sequitur::DigramTable::SlotBytes + Page -
               1) / Page * Page);
    EXPECT_EQ(G.footprintBytes(),
              G.numSymbolSlabs() * sequitur::SequiturGrammar::SymbolSlabBytes +
                  G.numRuleSlabs() * sequitur::SequiturGrammar::RuleSlabBytes +
                  G.indexBytes() + G.wideTableBytes());
  }
  ASSERT_GT(Session.indexBytes(), 0u);

  SessionArtifacts A = Session.finalize();
  ASSERT_FALSE(A.Failed) << A.Error;
  EXPECT_EQ(Session.indexBytes(), 0u);
  std::remove(Path.c_str());
}

TEST(ProfileSessionTest, InjectAfterFinalizeIsRejected) {
  // A block after finalize() must not reach the sealed grammars: it is
  // refused with an error, and the session and its artifacts stay as
  // they were.
  std::string Path = tempPath("late_inject.orpt");
  recordTrace("list-traversal", Path);
  traceio::TraceReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();
  session::ProfileSession Session("late", session::recordedConfig(Reader));
  ASSERT_TRUE(Session.replayFrom(Reader)) << Session.error();
  const SessionArtifacts First = Session.finalize();

  traceio::TraceReader::RawBlock B = Reader.rawBlock(0);
  EXPECT_FALSE(Session.injectBlock(B.Payload, B.PayloadLen, B.EventCount,
                                   B.Crc, 0, Reader.info().Version));
  EXPECT_EQ(Session.error(), "session already finalized");
  EXPECT_FALSE(Session.failed());
  EXPECT_EQ(Session.eventsInjected(), First.Events);
  const SessionArtifacts Again = Session.finalize();
  expectSameProfile(First, Again);
  EXPECT_EQ(Again.Error, First.Error);
  std::remove(Path.c_str());
}

TEST(ProfileSessionTest, ReplayAfterFinalizeIsRejected) {
  std::string Path = tempPath("late_replay.orpt");
  recordTrace("list-traversal", Path);
  traceio::TraceReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();
  session::ProfileSession Session("late", session::recordedConfig(Reader));
  ASSERT_TRUE(Session.replayFrom(Reader, 1, 0, 2)) << Session.error();
  const SessionArtifacts First = Session.finalize();

  EXPECT_FALSE(Session.replayFrom(Reader, 1, 2));
  EXPECT_EQ(Session.error(), "session already finalized");
  EXPECT_FALSE(Session.failed());
  EXPECT_EQ(Session.eventsInjected(), First.Events);
  const SessionArtifacts Again = Session.finalize();
  expectSameProfile(First, Again);
  EXPECT_EQ(Again.Error, First.Error);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Corruption isolation
//===----------------------------------------------------------------------===//

TEST(SessionManagerTest, CorruptBlockFailsOnlyItsOwnSession) {
  ScopedRole Role(session::SessionControlRole);
  std::string Path = tempPath("corrupt.orpt");
  recordTrace("list-traversal", Path);
  SessionArtifacts Serial = serialArtifacts(Path);

  traceio::TraceReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();

  session::ManagerConfig Config;
  Config.Threads = 2;
  session::SessionManager Mgr(Config);
  SessionId Bad = openFor(Mgr, Reader, "bad");
  SessionId Good = openFor(Mgr, Reader, "good");

  // Session "bad" gets block 0 with a flipped payload byte.
  traceio::TraceReader::RawBlock B0 = Reader.rawBlock(0);
  std::vector<uint8_t> Tampered(B0.Payload, B0.Payload + B0.PayloadLen);
  Tampered[Tampered.size() / 2] ^= 0x40;
  SubmitStatus St;
  while ((St = Mgr.submitBlock(Bad, Tampered.data(), Tampered.size(),
                               B0.EventCount, B0.Crc,
                               Reader.info().Version)) ==
         SubmitStatus::WouldBlock) {
  }
  ASSERT_EQ(St, SubmitStatus::Ok);

  // Session "good" replays the whole (intact) trace concurrently.
  for (size_t I = 0; I != Reader.numEventBlocks(); ++I)
    submitBlock(Mgr, Good, Reader, I);

  // "bad" latches its failure and rejects further blocks.
  session::SessionStats Stats;
  do {
    ASSERT_TRUE(Mgr.stats(Bad, Stats));
  } while (Stats.Pending != 0);
  EXPECT_TRUE(Stats.Failed);
  EXPECT_NE(Stats.Error.find("checksum mismatch"), std::string::npos)
      << Stats.Error;
  traceio::TraceReader::RawBlock B1 = Reader.rawBlock(1);
  EXPECT_EQ(Mgr.submitBlock(Bad, B1.Payload, B1.PayloadLen, B1.EventCount,
                            B1.Crc, Reader.info().Version),
            SubmitStatus::Failed);

  SessionArtifacts BadArt = Mgr.close(Bad);
  EXPECT_TRUE(BadArt.Failed);
  EXPECT_FALSE(BadArt.Error.empty());

  // The neighbor never notices.
  SessionArtifacts GoodArt = Mgr.close(Good);
  expectSameProfile(GoodArt, Serial);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Malformed allocations
//===----------------------------------------------------------------------===//

namespace {

/// One allocation the OMC cannot register, and the reason it gives.
struct BadAlloc {
  const char *Name;
  uint64_t Addr;
  uint64_t Size;
  const char *Reason;
};

/// The live object every bad-allocation trace starts with.
constexpr uint64_t kLiveBase = 0x2000'0000;
constexpr uint64_t kLiveSize = 64;

const BadAlloc kBadAllocs[] = {
    {"zero_sized", 0x3000'0000, 0, "zero-sized allocation"},
    {"wrapping", ~uint64_t(0) - 15, 32, "wraps past 2^64"},
    {"overlapping", kLiveBase + 16, kLiveSize, "overlaps a live object"},
    {"huge", 0x1000, uint64_t(1) << 63, "2^63 bytes or more"},
};

/// Records a live object, 200 accesses to it, \p Bad, then 50 more
/// accesses, in blocks of \p BlockBytes. Returns the index of the block
/// that holds \p Bad.
size_t recordBadAllocTrace(const std::string &Path, const BadAlloc &Bad,
                           size_t BlockBytes = 256) {
  trace::InstructionRegistry Registry;
  trace::AllocSiteId Site = Registry.addAllocSite("node");
  trace::InstrId Load = Registry.addInstruction("load", trace::AccessKind::Load);
  traceio::TraceWriter Writer(Path, Registry, memsim::AllocPolicy::FirstFit,
                              /*Seed=*/7, BlockBytes);
  EXPECT_TRUE(Writer.ok()) << Writer.error();
  uint64_t Time = 0;
  Writer.onAlloc(trace::AllocEvent{Site, kLiveBase, kLiveSize, Time, false});
  for (int I = 0; I != 200; ++I, ++Time)
    Writer.onAccess(trace::AccessEvent{Load, kLiveBase + (I % 8) * 8, 8,
                                       false, Time});
  Writer.onAlloc(trace::AllocEvent{Site, Bad.Addr, Bad.Size, Time, false});
  for (int I = 0; I != 50; ++I, ++Time)
    Writer.onAccess(trace::AccessEvent{Load, kLiveBase + (I % 8) * 8, 8,
                                       false, Time});
  EXPECT_TRUE(Writer.close()) << Writer.error();

  traceio::TraceReader Reader;
  EXPECT_TRUE(Reader.open(Path)) << Reader.error();
  uint64_t Before = 0;
  for (size_t B = 0; B != Reader.numEventBlocks(); ++B) {
    Before += Reader.rawBlock(B).EventCount;
    if (Before > 201) // The bad allocation is event 201.
      return B;
  }
  ADD_FAILURE() << "the trace lost its bad allocation";
  return 0;
}

} // namespace

TEST(ProfileSessionTest, MalformedAllocationFailsTheSession) {
  // Each malformed allocation ends the replay at that event with a
  // "block N: reason" error, on every replay path (serial and
  // decode-ahead): it never reaches the OMC, and the process lives on.
  for (unsigned Threads : {1u, 2u})
    for (const BadAlloc &Bad : kBadAllocs) {
      std::string Label =
          std::string(Bad.Name) + " threads " + std::to_string(Threads);
      std::string Path = tempPath(std::string("bad_alloc_") + Bad.Name);
      size_t Block = recordBadAllocTrace(Path, Bad);
      ASSERT_GT(Block, 0u) << Label;
      traceio::TraceReader Reader;
      ASSERT_TRUE(Reader.open(Path)) << Reader.error();
      session::ProfileSession Session("bad_alloc",
                                      session::recordedConfig(Reader));
      EXPECT_FALSE(Session.replayFrom(Reader, Threads)) << Label;
      EXPECT_TRUE(Session.failed()) << Label;
      EXPECT_EQ(Session.error().rfind(
                    "block " + std::to_string(Block) + ": ", 0),
                0u)
          << Label << ": " << Session.error();
      EXPECT_NE(Session.error().find(Bad.Reason), std::string::npos)
          << Label << ": " << Session.error();
      EXPECT_EQ(Session.eventsInjected(), 201u) << Label;
      EXPECT_EQ(Session.core().omc().numLiveObjects(), 1u) << Label;
      SessionArtifacts A = Session.finalize();
      EXPECT_TRUE(A.Failed) << Label;
      EXPECT_EQ(A.Error, Session.error()) << Label;
      std::remove(Path.c_str());
    }
}

TEST(SessionManagerTest, MalformedAllocationFailsOnlyItsOwnSession) {
  // A session fed a malformed allocation over submitBlock (the daemon's
  // EVENTS path) fails alone; sessions beside it keep their bytes.
  ScopedRole Role(session::SessionControlRole);
  std::string GoodPath = tempPath("bad_alloc_neighbor.orpt");
  recordTrace("list-traversal", GoodPath);
  SessionArtifacts Serial = serialArtifacts(GoodPath);
  traceio::TraceReader GoodReader;
  ASSERT_TRUE(GoodReader.open(GoodPath)) << GoodReader.error();

  session::ManagerConfig Config;
  Config.Threads = 2;
  session::SessionManager Mgr(Config);
  SessionId GoodA = openFor(Mgr, GoodReader, "good_a");
  std::vector<std::string> BadPaths;
  std::vector<traceio::TraceReader> BadReaders(std::size(kBadAllocs));
  std::vector<SessionId> Bad;
  std::vector<size_t> BadBlock;
  for (size_t K = 0; K != std::size(kBadAllocs); ++K) {
    BadPaths.push_back(tempPath(std::string("bad_alloc_mgr_") +
                                kBadAllocs[K].Name));
    BadBlock.push_back(recordBadAllocTrace(BadPaths[K], kBadAllocs[K]));
    ASSERT_TRUE(BadReaders[K].open(BadPaths[K])) << BadReaders[K].error();
    Bad.push_back(openFor(Mgr, BadReaders[K], kBadAllocs[K].Name));
  }
  SessionId GoodB = openFor(Mgr, GoodReader, "good_b");

  // Interleave every session's blocks. A failed session refuses the
  // blocks after its failure, which is all the daemon would see.
  size_t MaxBlocks = GoodReader.numEventBlocks();
  for (const traceio::TraceReader &R : BadReaders)
    MaxBlocks = std::max(MaxBlocks, R.numEventBlocks());
  for (size_t I = 0; I != MaxBlocks; ++I) {
    if (I < GoodReader.numEventBlocks()) {
      submitBlock(Mgr, GoodA, GoodReader, I);
      submitBlock(Mgr, GoodB, GoodReader, I);
    }
    for (size_t K = 0; K != Bad.size(); ++K) {
      if (I >= BadReaders[K].numEventBlocks())
        continue;
      traceio::TraceReader::RawBlock B = BadReaders[K].rawBlock(I);
      SubmitStatus St;
      while ((St = Mgr.submitBlock(Bad[K], B.Payload, B.PayloadLen,
                                   B.EventCount, B.Crc,
                                   BadReaders[K].info().Version)) ==
             SubmitStatus::WouldBlock) {
      }
      ASSERT_TRUE(St == SubmitStatus::Ok || St == SubmitStatus::Failed);
    }
  }

  for (size_t K = 0; K != Bad.size(); ++K) {
    SessionArtifacts A = Mgr.close(Bad[K]);
    EXPECT_TRUE(A.Failed) << kBadAllocs[K].Name;
    EXPECT_EQ(A.Error.rfind(
                  "block " + std::to_string(BadBlock[K]) + ": ", 0),
              0u)
        << A.Error;
    EXPECT_NE(A.Error.find(kBadAllocs[K].Reason), std::string::npos)
        << A.Error;
    std::remove(BadPaths[K].c_str());
  }
  expectSameProfile(Mgr.close(GoodA), Serial);
  expectSameProfile(Mgr.close(GoodB), Serial);
  std::remove(GoodPath.c_str());
}

//===----------------------------------------------------------------------===//
// Unsupported block encodings
//===----------------------------------------------------------------------===//

TEST(ProfileSessionTest, UnsupportedBlockVersionFailsTheSession) {
  // A block whose sender states any encoding but the columnar one is
  // refused before its bytes are read, and the session stays failed.
  std::string Path = tempPath("version1_inject.orpt");
  recordTrace("list-traversal", Path);
  traceio::TraceReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();
  session::ProfileSession Session("v1", session::recordedConfig(Reader));
  Session.registerProbeTables(Reader.instructions(), Reader.allocSites());
  traceio::TraceReader::RawBlock B = Reader.rawBlock(0);
  EXPECT_FALSE(Session.injectBlock(B.Payload, B.PayloadLen, B.EventCount,
                                   B.Crc, /*BlockIndex=*/0,
                                   /*FormatVersion=*/1));
  EXPECT_TRUE(Session.failed());
  EXPECT_EQ(Session.error(), "block 0: unsupported format version 1");
  EXPECT_FALSE(Session.injectBlock(B.Payload, B.PayloadLen, B.EventCount,
                                   B.Crc, /*BlockIndex=*/0,
                                   Reader.info().Version));
  EXPECT_EQ(Session.eventsInjected(), 0u);
  std::remove(Path.c_str());
}

TEST(SessionManagerTest, UnsupportedBlockVersionFailsOnlyItsOwnSession) {
  // A session whose blocks arrive over submitBlock stating version 1
  // fails alone; sessions beside it keep their bytes.
  ScopedRole Role(session::SessionControlRole);
  std::string Path = tempPath("version1_neighbor.orpt");
  recordTrace("list-traversal", Path);
  SessionArtifacts Serial = serialArtifacts(Path);
  traceio::TraceReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();

  session::ManagerConfig Config;
  Config.Threads = 2;
  session::SessionManager Mgr(Config);
  SessionId GoodA = openFor(Mgr, Reader, "good_a");
  SessionId Bad = openFor(Mgr, Reader, "v1");
  SessionId GoodB = openFor(Mgr, Reader, "good_b");
  for (size_t I = 0; I != Reader.numEventBlocks(); ++I) {
    submitBlock(Mgr, GoodA, Reader, I);
    traceio::TraceReader::RawBlock B = Reader.rawBlock(I);
    SubmitStatus St;
    while ((St = Mgr.submitBlock(Bad, B.Payload, B.PayloadLen, B.EventCount,
                                 B.Crc, /*FormatVersion=*/1)) ==
           SubmitStatus::WouldBlock) {
    }
    ASSERT_TRUE(St == SubmitStatus::Ok || St == SubmitStatus::Failed);
    submitBlock(Mgr, GoodB, Reader, I);
  }

  SessionArtifacts A = Mgr.close(Bad);
  EXPECT_TRUE(A.Failed);
  EXPECT_EQ(A.Error, "block 0: unsupported format version 1");
  EXPECT_EQ(A.Events, 0u);
  expectSameProfile(Mgr.close(GoodA), Serial);
  expectSameProfile(Mgr.close(GoodB), Serial);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Wire protocol codecs
//===----------------------------------------------------------------------===//

TEST(WireTest, FrameParserReassemblesByteByByte) {
  std::vector<uint8_t> Stream;
  session::appendFrame(session::FrameType::Open, {1, 2, 3}, Stream);
  session::appendFrame(session::FrameType::Close, {}, Stream);

  session::FrameParser Parser;
  std::vector<session::Frame> Got;
  session::Frame F;
  for (uint8_t Byte : Stream) {
    Parser.feed(&Byte, 1);
    while (Parser.next(F))
      Got.push_back(F);
  }
  ASSERT_EQ(Got.size(), 2u);
  EXPECT_EQ(Got[0].Type, session::FrameType::Open);
  EXPECT_EQ(Got[0].Payload, (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_EQ(Got[1].Type, session::FrameType::Close);
  EXPECT_TRUE(Got[1].Payload.empty());
  EXPECT_FALSE(Parser.failed());
}

TEST(WireTest, FrameParserRejectsOversizedLength) {
  // Length prefix far over kMaxFrameLength: a desynced client.
  std::vector<uint8_t> Bad = {0xff, 0xff, 0xff, 0xff, 0x01};
  session::FrameParser Parser;
  Parser.feed(Bad.data(), Bad.size());
  session::Frame F;
  EXPECT_FALSE(Parser.next(F));
  EXPECT_TRUE(Parser.failed());
  EXPECT_NE(Parser.error().find("bad frame length"), std::string::npos);
}

TEST(WireTest, OpenRequestRoundTrips) {
  session::OpenRequest Req;
  Req.Name = "roundtrip";
  Req.Config.Policy = memsim::AllocPolicy::BestFit;
  Req.Config.Seed = 1234567;
  Req.Config.EnableWhomp = true;
  Req.Config.EnableLeap = false;
  Req.Config.MaxLmads = 17;
  Req.Instrs.push_back({"load_a", trace::AccessKind::Load});
  Req.Sites.push_back({"site_x", "node_t"});

  std::vector<uint8_t> Payload;
  session::encodeOpen(Req, Payload);
  session::OpenRequest Out;
  std::string Err;
  ASSERT_TRUE(session::decodeOpen(Payload.data(), Payload.size(), Out, Err))
      << Err;
  EXPECT_EQ(Out.Name, "roundtrip");
  EXPECT_EQ(Out.Config.Policy, memsim::AllocPolicy::BestFit);
  EXPECT_EQ(Out.Config.Seed, 1234567u);
  EXPECT_TRUE(Out.Config.EnableWhomp);
  EXPECT_FALSE(Out.Config.EnableLeap);
  EXPECT_EQ(Out.Config.MaxLmads, 17u);
  ASSERT_EQ(Out.Instrs.size(), 1u);
  EXPECT_EQ(Out.Instrs[0].Name, "load_a");
  ASSERT_EQ(Out.Sites.size(), 1u);
  EXPECT_EQ(Out.Sites[0].TypeName, "node_t");

  // Truncation is an error, not a crash.
  ASSERT_GT(Payload.size(), 3u);
  EXPECT_FALSE(
      session::decodeOpen(Payload.data(), Payload.size() - 3, Out, Err));
  EXPECT_FALSE(Err.empty());
}

TEST(WireTest, EventsHeaderAndCloseSummaryRoundTrip) {
  std::vector<uint8_t> Payload;
  session::encodeEventsHeader(99, 1234, traceio::kFormatVersionV2,
                              0xdeadbeef, Payload);
  Payload.push_back(0x7f); // The block payload follows the header.
  session::EventsHeader H;
  std::string Err;
  ASSERT_TRUE(
      session::decodeEventsHeader(Payload.data(), Payload.size(), H, Err))
      << Err;
  EXPECT_EQ(H.SessionId, 99u);
  EXPECT_EQ(H.EventCount, 1234u);
  EXPECT_EQ(H.FormatVersion, traceio::kFormatVersionV2);
  EXPECT_EQ(H.Crc, 0xdeadbeefu);
  EXPECT_EQ(Payload[H.PayloadOffset], 0x7f);

  session::CloseSummary S;
  S.Events = 42;
  S.Failed = true;
  S.Error = "boom";
  S.Omsg = {1, 2};
  S.Leap = {3};
  std::vector<uint8_t> Encoded;
  session::encodeCloseSummary(S, Encoded);
  session::CloseSummary Out;
  ASSERT_TRUE(session::decodeCloseSummary(Encoded.data(), Encoded.size(),
                                          Out, Err))
      << Err;
  EXPECT_EQ(Out.Events, 42u);
  EXPECT_TRUE(Out.Failed);
  EXPECT_EQ(Out.Error, "boom");
  EXPECT_EQ(Out.Omsg, S.Omsg);
  EXPECT_EQ(Out.Leap, S.Leap);
}

//===----------------------------------------------------------------------===//
// Daemon + client, in process
//===----------------------------------------------------------------------===//

namespace {

/// Runs a Daemon on a background thread for one test's lifetime.
class DaemonFixture {
public:
  explicit DaemonFixture(const std::string &Tag, unsigned Threads = 2) {
    Config.SocketPath = tempPath(Tag + ".sock");
    Config.Manager.Threads = Threads;
    Daemon = std::make_unique<session::Daemon>(Config);
    std::string Err;
    {
      // start() runs here, before the control thread exists; the claim
      // hands over when the run() thread below claims for its lifetime.
      ScopedRole Role(session::SessionControlRole);
      Started = Daemon->start(Err);
    }
    EXPECT_TRUE(Started) << Err;
    if (Started)
      Thread = std::make_unique<support::ScopedThread>([this] {
        ScopedRole Role(session::SessionControlRole);
        Daemon->run([this] { return Stop.load(); });
      });
  }

  ~DaemonFixture() {
    Stop.store(true);
    if (Thread)
      Thread->join();
    Daemon.reset();
    std::remove(Config.SocketPath.c_str());
  }

  const std::string &socketPath() const { return Config.SocketPath; }
  bool started() const { return Started; }

private:
  session::DaemonConfig Config;
  std::unique_ptr<session::Daemon> Daemon;
  std::unique_ptr<support::ScopedThread> Thread;
  std::atomic<bool> Stop{false};
  bool Started = false;
};

/// Opens a session for \p Reader's trace over \p Client.
bool openOver(session::Client &Client, traceio::TraceReader &Reader,
              const std::string &Name, uint64_t &Id, std::string &Err) {
  session::OpenRequest Req;
  Req.Name = Name;
  Req.Config = session::recordedConfig(Reader);
  Req.Instrs = Reader.instructions();
  Req.Sites = Reader.allocSites();
  return Client.openSession(Req, Id, Err);
}

} // namespace

TEST(DaemonTest, RoundTripMatchesSerialReplay) {
  std::string Path = tempPath("daemon.orpt");
  recordTrace("list-traversal", Path);
  SessionArtifacts Serial = serialArtifacts(Path);

  DaemonFixture Fixture("rt");
  ASSERT_TRUE(Fixture.started());

  traceio::TraceReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();

  session::Client Client;
  std::string Err;
  ASSERT_TRUE(Client.connect(Fixture.socketPath(), Err)) << Err;

  uint64_t Id = 0;
  ASSERT_TRUE(openOver(Client, Reader, "rt", Id, Err)) << Err;
  ASSERT_TRUE(Client.submitTrace(Id, Reader, Err)) << Err;

  // Live per-session telemetry through the existing exporters.
  std::string Prom;
  ASSERT_TRUE(Client.snapshot(/*Format=*/2, "rt", Prom, Err)) << Err;
  EXPECT_NE(Prom.find("orp_session_rt_events"), std::string::npos) << Prom;
  std::string Json;
  ASSERT_TRUE(Client.snapshot(/*Format=*/0, "", Json, Err)) << Err;
  EXPECT_NE(Json.find("\"session.live\""), std::string::npos);

  session::CloseSummary Summary;
  ASSERT_TRUE(Client.closeSession(Id, Summary, Err)) << Err;
  EXPECT_FALSE(Summary.Failed) << Summary.Error;
  EXPECT_EQ(Summary.Events, Serial.Events);
  EXPECT_EQ(Summary.Omsg, Serial.Omsg);
  EXPECT_EQ(Summary.Leap, Serial.Leap);
  std::remove(Path.c_str());
}

TEST(DaemonTest, TwoClientsInterleavedMatchSerialReplay) {
  std::string PathA = tempPath("dual_a.orpt");
  std::string PathB = tempPath("dual_b.orpt");
  recordTrace("list-traversal", PathA, /*Scale=*/1);
  recordTrace("list-traversal", PathB, /*Scale=*/2);
  SessionArtifacts SerialA = serialArtifacts(PathA);
  SessionArtifacts SerialB = serialArtifacts(PathB);

  DaemonFixture Fixture("dual");
  ASSERT_TRUE(Fixture.started());

  traceio::TraceReader ReaderA, ReaderB;
  ASSERT_TRUE(ReaderA.open(PathA)) << ReaderA.error();
  ASSERT_TRUE(ReaderB.open(PathB)) << ReaderB.error();

  session::Client ClientA, ClientB;
  std::string Err;
  ASSERT_TRUE(ClientA.connect(Fixture.socketPath(), Err)) << Err;
  ASSERT_TRUE(ClientB.connect(Fixture.socketPath(), Err)) << Err;

  uint64_t IdA = 0, IdB = 0;
  ASSERT_TRUE(openOver(ClientA, ReaderA, "dual_a", IdA, Err)) << Err;
  ASSERT_TRUE(openOver(ClientB, ReaderB, "dual_b", IdB, Err)) << Err;

  // Interleave at block granularity across the two connections.
  size_t NumA = ReaderA.numEventBlocks(), NumB = ReaderB.numEventBlocks();
  for (size_t I = 0; I < NumA || I < NumB; ++I) {
    if (I < NumA) {
      ASSERT_TRUE(ClientA.submitBlock(IdA, ReaderA.rawBlock(I),
                                      ReaderA.info().Version, Err))
          << Err;
    }
    if (I < NumB) {
      ASSERT_TRUE(ClientB.submitBlock(IdB, ReaderB.rawBlock(I),
                                      ReaderB.info().Version, Err))
          << Err;
    }
  }

  session::CloseSummary SummaryA, SummaryB;
  ASSERT_TRUE(ClientA.closeSession(IdA, SummaryA, Err)) << Err;
  ASSERT_TRUE(ClientB.closeSession(IdB, SummaryB, Err)) << Err;
  EXPECT_FALSE(SummaryA.Failed) << SummaryA.Error;
  EXPECT_FALSE(SummaryB.Failed) << SummaryB.Error;
  EXPECT_EQ(SummaryA.Omsg, SerialA.Omsg);
  EXPECT_EQ(SummaryA.Leap, SerialA.Leap);
  EXPECT_EQ(SummaryB.Omsg, SerialB.Omsg);
  EXPECT_EQ(SummaryB.Leap, SerialB.Leap);
  std::remove(PathA.c_str());
  std::remove(PathB.c_str());
}

TEST(DaemonTest, AbruptDisconnectAbortsOnlyThatClientsSessions) {
  std::string Path = tempPath("drop.orpt");
  recordTrace("list-traversal", Path);
  SessionArtifacts Serial = serialArtifacts(Path);

  DaemonFixture Fixture("drop");
  ASSERT_TRUE(Fixture.started());

  traceio::TraceReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();

  uint64_t AbortedBefore = telemetry::Registry::global().snapshot().counter(
      "session.aborted");

  // Client A opens a session, streams one block, and vanishes.
  {
    session::Client Doomed;
    std::string Err;
    ASSERT_TRUE(Doomed.connect(Fixture.socketPath(), Err)) << Err;
    uint64_t Id = 0;
    ASSERT_TRUE(openOver(Doomed, Reader, "doomed", Id, Err)) << Err;
    ASSERT_TRUE(Doomed.submitBlock(Id, Reader.rawBlock(0),
                                   Reader.info().Version, Err))
        << Err;
  } // Destructor closes the socket mid-stream; no CLOSE frame sent.

  // Client B is unaffected: full stream, byte-identical profile.
  session::Client Client;
  std::string Err;
  ASSERT_TRUE(Client.connect(Fixture.socketPath(), Err)) << Err;
  uint64_t Id = 0;
  ASSERT_TRUE(openOver(Client, Reader, "survivor", Id, Err)) << Err;
  ASSERT_TRUE(Client.submitTrace(Id, Reader, Err)) << Err;

  // The daemon reaps the dead connection on its poll cadence; wait for
  // the abort to land before asserting on it.
  bool Aborted = false;
  for (int Try = 0; Try != 200 && !Aborted; ++Try) {
    std::string Text;
    ASSERT_TRUE(Client.snapshot(/*Format=*/1, "", Text, Err)) << Err;
    Aborted = telemetry::Registry::global().snapshot().counter(
                  "session.aborted") > AbortedBefore;
  }
  EXPECT_TRUE(Aborted);

  session::CloseSummary Summary;
  ASSERT_TRUE(Client.closeSession(Id, Summary, Err)) << Err;
  EXPECT_FALSE(Summary.Failed) << Summary.Error;
  EXPECT_EQ(Summary.Omsg, Serial.Omsg);
  EXPECT_EQ(Summary.Leap, Serial.Leap);
  std::remove(Path.c_str());
}

TEST(DaemonTest, CorruptStreamGetsErrorReplyOthersUnaffected) {
  std::string Path = tempPath("derr.orpt");
  recordTrace("list-traversal", Path);
  SessionArtifacts Serial = serialArtifacts(Path);

  DaemonFixture Fixture("derr");
  ASSERT_TRUE(Fixture.started());

  traceio::TraceReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();

  session::Client Client;
  std::string Err;
  ASSERT_TRUE(Client.connect(Fixture.socketPath(), Err)) << Err;
  uint64_t BadId = 0, GoodId = 0;
  ASSERT_TRUE(openOver(Client, Reader, "derr_bad", BadId, Err)) << Err;
  ASSERT_TRUE(openOver(Client, Reader, "derr_good", GoodId, Err)) << Err;

  // A tampered block: the daemon keeps running and the session reports
  // its decode error on the next submit (or at close).
  traceio::TraceReader::RawBlock B0 = Reader.rawBlock(0);
  traceio::TraceReader::RawBlock Tampered = B0;
  std::vector<uint8_t> Bytes(B0.Payload, B0.Payload + B0.PayloadLen);
  Bytes[Bytes.size() / 2] ^= 0x20;
  Tampered.Payload = Bytes.data();
  ASSERT_TRUE(Client.submitBlock(BadId, Tampered, Reader.info().Version,
                                 Err))
      << Err;

  ASSERT_TRUE(Client.submitTrace(GoodId, Reader, Err)) << Err;

  session::CloseSummary BadSummary;
  ASSERT_TRUE(Client.closeSession(BadId, BadSummary, Err)) << Err;
  EXPECT_TRUE(BadSummary.Failed);
  EXPECT_NE(BadSummary.Error.find("checksum mismatch"), std::string::npos)
      << BadSummary.Error;

  session::CloseSummary GoodSummary;
  ASSERT_TRUE(Client.closeSession(GoodId, GoodSummary, Err)) << Err;
  EXPECT_FALSE(GoodSummary.Failed) << GoodSummary.Error;
  EXPECT_EQ(GoodSummary.Omsg, Serial.Omsg);
  EXPECT_EQ(GoodSummary.Leap, Serial.Leap);
  std::remove(Path.c_str());
}

TEST(DaemonTest, ClosingForeignSessionIsRejected) {
  DaemonFixture Fixture("foreign");
  ASSERT_TRUE(Fixture.started());

  session::Client A, B;
  std::string Err;
  ASSERT_TRUE(A.connect(Fixture.socketPath(), Err)) << Err;
  ASSERT_TRUE(B.connect(Fixture.socketPath(), Err)) << Err;

  session::OpenRequest Req;
  Req.Name = "mine";
  uint64_t Id = 0;
  ASSERT_TRUE(A.openSession(Req, Id, Err)) << Err;

  // B never opened Id; the daemon must not let it close A's session.
  session::CloseSummary Summary;
  EXPECT_FALSE(B.closeSession(Id, Summary, Err));
  EXPECT_NE(Err.find("not open on this connection"), std::string::npos)
      << Err;

  ASSERT_TRUE(A.closeSession(Id, Summary, Err)) << Err;
  EXPECT_FALSE(Summary.Failed);
}

//===----------------------------------------------------------------------===//
// Version / format pinning
//===----------------------------------------------------------------------===//

TEST(VersionTest, AdvertisedFormatIsTheWriterFormat) {
  // support/Version.h cannot include traceio (layering); this pin keeps
  // the advertised version honest when the format gains a revision.
  EXPECT_EQ(support::kTraceFormatVersion,
            static_cast<unsigned>(traceio::kFormatVersionV2));
}
