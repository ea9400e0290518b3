//===- tests/pipeline_test.cpp - Deterministic parallel pipeline tests ---===//
//
// The contract under test (DESIGN.md section 10): threading only moves
// work between threads, never reorders any substream — so profiles
// built with --threads N are byte-identical to --threads 1 for every N.
// Plus unit tests for the support threading primitives themselves.
//
//===----------------------------------------------------------------------===//

#include "core/Decomposition.h"
#include "core/ProfilingSession.h"
#include "leap/LeapProfileData.h"
#include "leap/Leap.h"
#include "session/ProfileSession.h"
#include "support/SpscQueue.h"
#include "support/WorkerPool.h"
#include "telemetry/Metric.h"
#include "traceio/TraceReader.h"
#include "traceio/TraceWriter.h"
#include "whomp/OmsgArchive.h"
#include "whomp/Whomp.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

using namespace orp;

namespace {

std::string tempPath(const std::string &Name) {
  return testing::TempDir() + "orp_pipeline_" + Name;
}

} // namespace

//===----------------------------------------------------------------------===//
// SpscQueue
//===----------------------------------------------------------------------===//

TEST(SpscQueueTest, FifoAcrossThreads) {
  constexpr int N = 10000;
  support::SpscQueue<int> Q(/*Capacity=*/8);
  std::vector<int> Got;
  support::ScopedThread Consumer([&] {
    int V;
    while (Q.pop(V))
      Got.push_back(V);
  });
  for (int I = 0; I != N; ++I)
    ASSERT_TRUE(Q.push(int(I)));
  Q.close();
  Consumer.join();
  ASSERT_EQ(Got.size(), static_cast<size_t>(N));
  for (int I = 0; I != N; ++I)
    EXPECT_EQ(Got[I], I);
}

TEST(SpscQueueTest, TryPushRespectsCapacity) {
  support::SpscQueue<int> Q(2);
  EXPECT_EQ(Q.capacity(), 2u);
  EXPECT_TRUE(Q.tryPush(1));
  EXPECT_TRUE(Q.tryPush(2));
  EXPECT_FALSE(Q.tryPush(3)) << "queue is full";
  int V = 0;
  EXPECT_TRUE(Q.tryPop(V));
  EXPECT_EQ(V, 1);
  EXPECT_TRUE(Q.tryPush(3)) << "slot freed by pop";
}

TEST(SpscQueueTest, CloseDrainsThenStops) {
  support::SpscQueue<int> Q(4);
  ASSERT_TRUE(Q.push(10));
  ASSERT_TRUE(Q.push(20));
  Q.close();
  int V = 0;
  EXPECT_TRUE(Q.pop(V));
  EXPECT_EQ(V, 10);
  EXPECT_TRUE(Q.pop(V)) << "items queued before close() are delivered";
  EXPECT_EQ(V, 20);
  EXPECT_FALSE(Q.pop(V)) << "closed and drained";
  EXPECT_FALSE(Q.tryPop(V));
}

TEST(SpscQueueTest, TryPopOnEmptyOpenQueue) {
  support::SpscQueue<int> Q(4);
  int V = 0;
  EXPECT_FALSE(Q.tryPop(V)) << "empty but not closed";
}

TEST(SpscQueueTest, PushAfterCloseReturnsFalse) {
  support::SpscQueue<int> Q(4);
  EXPECT_TRUE(Q.push(1));
  Q.close();
  EXPECT_FALSE(Q.push(2)) << "closed queue rejects the value";
  EXPECT_FALSE(Q.tryPush(3)) << "closed queue rejects the value";
  int V = 0;
  EXPECT_TRUE(Q.pop(V)) << "pre-close items still drain";
  EXPECT_EQ(V, 1);
  EXPECT_FALSE(Q.pop(V));
}

TEST(SpscQueueTest, CloseWakesBlockedProducerWithoutCorruption) {
  // Regression: a close() racing a producer blocked on a full ring must
  // make that push fail cleanly — not overwrite an unconsumed slot or
  // push Count past capacity.
  support::SpscQueue<int> Q(2);
  ASSERT_TRUE(Q.push(1));
  ASSERT_TRUE(Q.push(2));
  bool Pushed = true;
  {
    support::ScopedThread Producer([&] { Pushed = Q.push(3); });
    Q.close(); // Before or during the blocked push: both must reject.
  }
  EXPECT_FALSE(Pushed);
  int V = 0;
  EXPECT_TRUE(Q.pop(V));
  EXPECT_EQ(V, 1) << "oldest element survived the close";
  EXPECT_TRUE(Q.pop(V));
  EXPECT_EQ(V, 2);
  EXPECT_FALSE(Q.pop(V)) << "exactly the two pre-close items drained";
}

//===----------------------------------------------------------------------===//
// QueueWorker
//===----------------------------------------------------------------------===//

TEST(SpscQueueTest, TelemetryTracksDepthWatermarkAndStalls) {
  support::SpscQueue<int> Q(/*Capacity=*/4);
  support::QueueTelemetry T0 = Q.telemetry();
  EXPECT_EQ(T0.Capacity, 4u);
  EXPECT_EQ(T0.Depth, 0u);
  EXPECT_EQ(T0.Pushes, 0u);

  ASSERT_TRUE(Q.push(1));
  ASSERT_TRUE(Q.push(2));
  ASSERT_TRUE(Q.push(3));
  support::QueueTelemetry T1 = Q.telemetry();
  EXPECT_EQ(T1.Depth, 3u);
  EXPECT_EQ(T1.HighWatermark, 3u);
  EXPECT_EQ(T1.Pushes, 3u);
  EXPECT_EQ(T1.PushStalls, 0u);

  int V;
  ASSERT_TRUE(Q.tryPop(V));
  ASSERT_TRUE(Q.tryPop(V));
  support::QueueTelemetry T2 = Q.telemetry();
  EXPECT_EQ(T2.Depth, 1u);
  EXPECT_EQ(T2.HighWatermark, 3u) << "watermark never decreases";
  EXPECT_EQ(T2.Pops, 2u);

  // Fill the queue, then have a consumer drain while a blocked push
  // waits: the stall must be counted exactly once.
  ASSERT_TRUE(Q.push(4));
  ASSERT_TRUE(Q.push(5));
  ASSERT_TRUE(Q.push(6));
  support::ScopedThread Consumer([&] {
    // Drain only once the producer has stalled; popping earlier would
    // make room before push(7) and leave nothing to count.
    while (Q.telemetry().PushStalls == 0) {
    }
    int X;
    for (int I = 0; I != 5; ++I)
      EXPECT_TRUE(Q.pop(X));
  });
  ASSERT_TRUE(Q.push(7)); // blocks until the consumer makes room
  Consumer.join();
  support::QueueTelemetry T3 = Q.telemetry();
  EXPECT_EQ(T3.PushStalls, 1u);
  EXPECT_EQ(T3.Pushes, 7u);
  EXPECT_EQ(T3.HighWatermark, 4u);
  EXPECT_EQ(T3.Depth, 0u);
}

TEST(QueueWorkerTest, TelemetryReportsQueueAndBusyTime) {
  support::WorkerTelemetry T;
  {
    support::QueueWorker<int> Worker(
        /*QueueCapacity=*/16, [](int &) {
          // Enough work that steady_clock registers nonzero busy time.
          // Unsigned, so the running sum wraps instead of overflowing.
          volatile unsigned Spin = 0;
          for (unsigned I = 0; I != 100000; ++I)
            Spin = Spin + I;
        });
    for (int I = 0; I != 10; ++I)
      ASSERT_TRUE(Worker.submit(int(I)));
    Worker.finish();
    T = Worker.telemetry();
  }
  EXPECT_EQ(T.Queue.Pushes, 10u);
  EXPECT_EQ(T.Queue.Depth, 0u);
  EXPECT_GE(T.Queue.HighWatermark, 1u);
  EXPECT_GT(T.BusyNanos, 0u);
}

TEST(QueueWorkerTest, ProcessesSubmissionsInOrder) {
  std::vector<int> Seen;
  {
    support::QueueWorker<int> W(/*QueueCapacity=*/4,
                                [&](int &V) { Seen.push_back(V); });
    for (int I = 0; I != 1000; ++I)
      ASSERT_TRUE(W.submit(int(I)));
    W.finish();
    W.finish(); // Idempotent.
  }
  ASSERT_EQ(Seen.size(), 1000u);
  for (int I = 0; I != 1000; ++I)
    EXPECT_EQ(Seen[I], I);
}

TEST(QueueWorkerTest, SubmitAfterFinishReturnsFalse) {
  // Regression for the bug the [[nodiscard]] rollout surfaced:
  // WorkerPool::submit used to return void and silently dropped items
  // submitted after finish(). It now reports the refusal, and every
  // production call site either fatals (decomposers — a refused chunk
  // is lost symbols) or stops producing (replayer decode-ahead).
  std::vector<int> Seen;
  support::QueueWorker<int> W(/*QueueCapacity=*/4,
                              [&](int &V) { Seen.push_back(V); });
  ASSERT_TRUE(W.submit(1));
  W.finish();
  EXPECT_FALSE(W.submit(2)) << "finished worker must refuse, not drop";
  EXPECT_EQ(Seen.size(), 1u) << "the refused item never ran";
}

TEST(QueueWorkerTest, DestructorDrainsWithoutExplicitFinish) {
  int Sum = 0;
  {
    support::QueueWorker<int> W(2, [&](int &V) { Sum += V; });
    for (int I = 1; I <= 100; ++I)
      ASSERT_TRUE(W.submit(int(I)));
  }
  EXPECT_EQ(Sum, 5050) << "all submitted work ran before join";
}

//===----------------------------------------------------------------------===//
// Decomposers: threaded == serial
//===----------------------------------------------------------------------===//

namespace {

/// Compressor that just records the symbols it was fed.
class RecordingCompressor : public core::StreamCompressor {
public:
  void append(uint64_t Symbol) override { Symbols.push_back(Symbol); }
  size_t serializedSizeBytes() const override { return Symbols.size(); }
  std::vector<uint64_t> Symbols;
};

/// Substream that records its tuples' times.
class RecordingSubstream : public core::SubstreamConsumer {
public:
  void append(const core::OrTuple &Tuple) override {
    Times.push_back(Tuple.Time);
  }
  std::vector<uint64_t> Times;
};

core::OrTuple makeTuple(uint32_t Instr, uint32_t Group, uint64_t Time) {
  core::OrTuple T;
  T.Instr = Instr;
  T.Group = Group;
  T.Object = Time % 7;
  T.Offset = Time % 13;
  T.Time = Time;
  T.IsStore = false;
  T.Size = 8;
  return T;
}

} // namespace

TEST(DecompositionThreadedTest, HorizontalMatchesSerial) {
  auto Run = [](unsigned Threads) {
    core::HorizontalDecomposer D(
        {core::Dimension::Instruction, core::Dimension::Offset},
        [] { return std::make_unique<RecordingCompressor>(); }, Threads);
    EXPECT_EQ(D.threaded(), Threads > 1);
    // More tuples than ThreadChunkSymbols so chunking kicks in.
    for (uint64_t I = 0; I != 3 * D.ThreadChunkSymbols + 17; ++I)
      D.consume(makeTuple(I % 5, 0, I));
    D.finish();
    EXPECT_FALSE(D.threaded()) << "workers joined at finish()";
    auto Sym = [&](core::Dimension Dim) {
      return static_cast<const RecordingCompressor &>(D.compressorFor(Dim))
          .Symbols;
    };
    return std::make_pair(Sym(core::Dimension::Instruction),
                          Sym(core::Dimension::Offset));
  };
  auto Serial = Run(1);
  auto Threaded = Run(4);
  EXPECT_EQ(Serial.first, Threaded.first);
  EXPECT_EQ(Serial.second, Threaded.second);
}

TEST(DecompositionThreadedTest, VerticalMatchesSerialAcrossThreadCounts) {
  auto Run = [](unsigned Threads) {
    core::VerticalDecomposer D(
        [](core::VerticalKey) {
          return std::make_unique<RecordingSubstream>();
        },
        Threads);
    for (uint64_t I = 0; I != 3 * D.ThreadChunkTuples + 5; ++I)
      D.consume(makeTuple(I % 11, I % 3, I));
    D.finish();
    // Key-ordered (key, times) pairs; must be identical for every
    // thread count.
    std::vector<std::pair<std::pair<uint32_t, uint32_t>,
                          std::vector<uint64_t>>> Result;
    D.forEach([&](const core::VerticalKey &Key,
                  const core::SubstreamConsumer &Sub) {
      Result.push_back(
          {{Key.Instr, Key.Group},
           static_cast<const RecordingSubstream &>(Sub).Times});
    });
    return Result;
  };
  auto Serial = Run(1);
  EXPECT_EQ(Serial, Run(2));
  EXPECT_EQ(Serial, Run(8));
}

TEST(DecompositionThreadedTest, VerticalDestroyWithoutFinishJoinsWorkers) {
  // Regression (use-after-free): destroying a threaded decomposer with
  // chunks still in flight must join the workers before the shard maps
  // are torn down. Detected under ASan/TSan; no finish() on purpose.
  core::VerticalDecomposer D(
      [](core::VerticalKey) { return std::make_unique<RecordingSubstream>(); },
      /*Threads=*/4);
  for (uint64_t I = 0; I != 8 * D.ThreadChunkTuples + 3; ++I)
    D.consume(makeTuple(I % 11, I % 3, I));
}

TEST(DecompositionThreadedTest, HorizontalDestroyWithoutFinishJoinsWorkers) {
  // Same contract for the dimension workers: destruction with buffered
  // symbols and no finish() must flush, join, then tear down.
  core::HorizontalDecomposer D(
      {core::Dimension::Instruction, core::Dimension::Offset},
      [] { return std::make_unique<RecordingCompressor>(); }, /*Threads=*/4);
  for (uint64_t I = 0; I != 8 * D.ThreadChunkSymbols + 3; ++I)
    D.consume(makeTuple(I % 5, 0, I));
}

//===----------------------------------------------------------------------===//
// Cross-thread determinism goldens (ISSUE satellite 4)
//===----------------------------------------------------------------------===//

namespace {

/// Records \p WorkloadName to \p Path with live WHOMP+LEAP attached.
void recordWithProfilers(const std::string &WorkloadName,
                         const std::string &Path,
                         std::vector<uint8_t> &LiveOmsg,
                         std::vector<uint8_t> &LiveLeap) {
  core::ProfilingSession Session(memsim::AllocPolicy::FirstFit, /*Seed=*/7);
  traceio::TraceWriter Writer(Path, Session.registry(),
                              memsim::AllocPolicy::FirstFit, /*Seed=*/7);
  ASSERT_TRUE(Writer.ok()) << Writer.error();
  Session.addRawSink(&Writer);
  whomp::WhompProfiler Whomp;
  leap::LeapProfiler Leap;
  Session.addConsumer(&Whomp);
  Session.addConsumer(&Leap);
  auto W = workloads::createWorkloadByName(WorkloadName);
  ASSERT_TRUE(W);
  workloads::WorkloadConfig Config;
  W->run(Session.memory(), Session.registry(), Config);
  Session.finish();
  ASSERT_TRUE(Writer.close()) << Writer.error();
  LiveOmsg = whomp::OmsgArchive::build(Whomp, &Session.omc()).serialize();
  LiveLeap = leap::LeapProfileData::fromProfiler(Leap).serialize();
}

/// Replays \p Path at \p Threads and serializes both profiles.
void replayAt(const std::string &Path, unsigned Threads,
              std::vector<uint8_t> &Omsg, std::vector<uint8_t> &LeapBytes,
              uint64_t &EventsReplayed) {
  traceio::TraceReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();
  session::SessionConfig Config = session::recordedConfig(Reader);
  Config.ProfilerThreads = Threads;
  session::ProfileSession Session("replay", Config);
  ASSERT_TRUE(Session.replayFrom(Reader, Threads)) << Session.error();
  session::SessionArtifacts A = Session.finalize();
  EventsReplayed = A.Events;
  Omsg = std::move(A.Omsg);
  LeapBytes = std::move(A.Leap);
}

} // namespace

TEST(PipelineDeterminismTest, ReplayIsByteIdenticalForAnyThreadCount) {
  std::string Path = tempPath("vpr.orpt");
  std::vector<uint8_t> LiveOmsg, LiveLeap;
  recordWithProfilers("175.vpr-a", Path, LiveOmsg, LiveLeap);
  ASSERT_FALSE(LiveOmsg.empty());
  ASSERT_FALSE(LiveLeap.empty());

  std::vector<uint8_t> Omsg1, Leap1;
  uint64_t Events1 = 0;
  replayAt(Path, 1, Omsg1, Leap1, Events1);
  // Replay at 1 thread matches the live run (existing traceio
  // contract); threaded replays must then match the serial replay.
  EXPECT_EQ(Omsg1, LiveOmsg);
  EXPECT_EQ(Leap1, LiveLeap);

  for (unsigned Threads : {2u, 8u}) {
    std::vector<uint8_t> Omsg, Leap;
    uint64_t Events = 0;
    replayAt(Path, Threads, Omsg, Leap, Events);
    EXPECT_EQ(Events, Events1) << Threads << " threads";
    EXPECT_EQ(Omsg, Omsg1) << Threads << " threads";
    EXPECT_EQ(Leap, Leap1) << Threads << " threads";
  }
  std::remove(Path.c_str());
}

TEST(PipelineDeterminismTest, ProfilesAreByteIdenticalWithTelemetryOnOrOff) {
  // The telemetry subsystem is observation-only: OMSG archives and LEAP
  // profiles must not change by a single byte when metrics recording is
  // toggled, at any thread count (ISSUE 5 acceptance criterion).
  std::string Path = tempPath("telemetry_golden.orpt");
  std::vector<uint8_t> LiveOmsg, LiveLeap;
  recordWithProfilers("175.vpr-a", Path, LiveOmsg, LiveLeap);

  for (unsigned Threads : {1u, 2u, 8u}) {
    std::vector<uint8_t> OmsgOn, LeapOn, OmsgOff, LeapOff;
    uint64_t EventsOn = 0, EventsOff = 0;
    telemetry::setEnabled(true);
    replayAt(Path, Threads, OmsgOn, LeapOn, EventsOn);
    telemetry::setEnabled(false);
    replayAt(Path, Threads, OmsgOff, LeapOff, EventsOff);
    telemetry::setEnabled(true);
    EXPECT_EQ(EventsOn, EventsOff) << Threads << " threads";
    EXPECT_EQ(OmsgOn, OmsgOff) << Threads << " threads";
    EXPECT_EQ(LeapOn, LeapOff) << Threads << " threads";
    // And both match the live (telemetry-on) profile.
    EXPECT_EQ(OmsgOn, LiveOmsg) << Threads << " threads";
    EXPECT_EQ(LeapOn, LiveLeap) << Threads << " threads";
  }
  std::remove(Path.c_str());
}

TEST(PipelineDeterminismTest, ThreadedReplayRejectsCorruptTrace) {
  std::string Path = tempPath("corrupt.orpt");
  std::vector<uint8_t> LiveOmsg, LiveLeap;
  recordWithProfilers("164.gzip-a", Path, LiveOmsg, LiveLeap);

  // Flip one byte in the middle of block 1's payload, so block 0 still
  // reaches the profilers; the block CRC must catch it — also through
  // the decode-ahead worker path.
  long At;
  {
    traceio::TraceReader Intact;
    ASSERT_TRUE(Intact.open(Path)) << Intact.error();
    ASSERT_GT(Intact.numEventBlocks(), 1u);
    traceio::TraceReader::RawBlock Raw = Intact.rawBlock(1);
    At = static_cast<long>(Raw.FileOffset + Raw.PayloadLen / 2);
  }
  std::FILE *F = std::fopen(Path.c_str(), "rb+");
  ASSERT_NE(F, nullptr);
  ASSERT_EQ(std::fseek(F, At, SEEK_SET), 0);
  int C = std::fgetc(F);
  ASSERT_NE(C, EOF);
  ASSERT_EQ(std::fseek(F, At, SEEK_SET), 0);
  std::fputc(C ^ 0xFF, F);
  std::fclose(F);

  traceio::TraceReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();
  {
    session::SessionConfig Config = session::recordedConfig(Reader);
    Config.ProfilerThreads = 4;
    session::ProfileSession Session("corrupt", Config);
    EXPECT_FALSE(Session.replayFrom(Reader, /*DecodeThreads=*/4));
    EXPECT_TRUE(Session.failed());
    EXPECT_NE(Session.error().find("block 1 at byte"), std::string::npos)
        << Session.error();
  }

  // Threaded profilers destroyed mid-stream without finish(): the
  // decomposer destructors must join their workers with chunks still in
  // flight (regression: use-after-free on the shard maps, caught by
  // ASan/TSan). ~ProfileSession finishes its profilers, so a bare
  // pipeline is fed the blocks before the corrupt one instead.
  whomp::WhompProfiler Whomp(/*Threads=*/4);
  leap::LeapProfiler Leap(lmad::LmadCompressor::DefaultMaxLmads,
                          /*Threads=*/4);
  core::ProfilingSession Session(memsim::AllocPolicy::FirstFit, /*Seed=*/7);
  Session.addConsumer(&Whomp);
  Session.addConsumer(&Leap);
  uint64_t Fed = 0;
  std::string Err;
  EXPECT_FALSE(Reader.forEachEvent([&](const traceio::TraceEvent &E) {
    ++Fed;
    if (E.K == traceio::TraceEvent::Kind::Access)
      Session.memory().injectAccess(
          {E.InstrOrSite, E.Addr, static_cast<uint32_t>(E.Size), E.IsStore,
           E.Time});
    else if (E.K == traceio::TraceEvent::Kind::Free)
      Session.memory().injectFree({E.Addr, E.Time});
    else
      EXPECT_TRUE(Session.injectAlloc(
          {E.InstrOrSite, E.Addr, E.Size, E.Time, E.IsStatic}, 0, Err))
          << Err;
  }));
  EXPECT_GT(Fed, 0u);
  std::remove(Path.c_str());
}

TEST(PipelineDeterminismTest, LiveProfilersMatchAcrossThreadCounts) {
  // Same contract without traces: a live session with threaded
  // profilers equals the serial live session.
  auto Run = [](unsigned Threads, std::vector<uint8_t> &Omsg,
                std::vector<uint8_t> &LeapBytes) {
    core::ProfilingSession Session(memsim::AllocPolicy::BestFit,
                                   /*Seed=*/3);
    whomp::WhompProfiler Whomp(Threads);
    leap::LeapProfiler Leap(lmad::LmadCompressor::DefaultMaxLmads,
                            Threads);
    Session.addConsumer(&Whomp);
    Session.addConsumer(&Leap);
    auto W = workloads::createWorkloadByName("181.mcf-a");
    ASSERT_TRUE(W);
    workloads::WorkloadConfig Config;
    W->run(Session.memory(), Session.registry(), Config);
    Session.finish();
    Omsg = whomp::OmsgArchive::build(Whomp, &Session.omc()).serialize();
    LeapBytes = leap::LeapProfileData::fromProfiler(Leap).serialize();
  };
  std::vector<uint8_t> Omsg1, Leap1, Omsg4, Leap4;
  Run(1, Omsg1, Leap1);
  Run(4, Omsg4, Leap4);
  EXPECT_EQ(Omsg1, Omsg4);
  EXPECT_EQ(Leap1, Leap4);
}
