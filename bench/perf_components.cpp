//===- bench/perf_components.cpp - Component micro-benchmarks ------------===//
//
// google-benchmark throughput measurements for the building blocks:
// Sequitur append rate on several stream shapes, OMC translation rate
// vs. live-object count, LMAD compressor point rate, and the end-to-end
// probe->CDC->profiler pipeline cost per access (the per-access cost
// behind Table 1's dilation factor).
//
//===----------------------------------------------------------------------===//

#include "advisor/HotColdClassifier.h"
#include "advisor/TieredReplay.h"
#include "core/ProfilingSession.h"
#include "leap/Leap.h"
#include "leap/LeapProfileData.h"
#include "lmad/LmadCompressor.h"
#include "omc/ObjectManager.h"
#include "session/ProfileSession.h"
#include "sequitur/Sequitur.h"
#include "support/Random.h"
#include "support/VarInt.h"
#include "telemetry/Metric.h"
#include "traceio/BlockCodec.h"
#include "traceio/TraceReader.h"
#include "traceio/TraceWriter.h"
#include "whomp/Whomp.h"
#include "workloads/Workload.h"

#include <benchmark/benchmark.h>

using namespace orp;

namespace {

//===----------------------------------------------------------------------===//
// Sequitur
//===----------------------------------------------------------------------===//

void BM_SequiturPeriodic(benchmark::State &State) {
  const int Period = static_cast<int>(State.range(0));
  for (auto _ : State) {
    sequitur::SequiturGrammar G;
    for (int I = 0; I != 20000; ++I)
      G.append(static_cast<uint64_t>(I % Period));
    benchmark::DoNotOptimize(G.numRules());
  }
  State.SetItemsProcessed(State.iterations() * 20000);
}
BENCHMARK(BM_SequiturPeriodic)->Arg(4)->Arg(64)->Arg(1024);

void BM_SequiturRandom(benchmark::State &State) {
  const uint64_t Alphabet = static_cast<uint64_t>(State.range(0));
  Rng R(1);
  std::vector<uint64_t> Input(20000);
  for (uint64_t &V : Input)
    V = R.nextBelow(Alphabet);
  for (auto _ : State) {
    sequitur::SequiturGrammar G;
    G.appendAll(Input);
    benchmark::DoNotOptimize(G.numRules());
  }
  State.SetItemsProcessed(State.iterations() * 20000);
}
BENCHMARK(BM_SequiturRandom)->Arg(2)->Arg(256)->Arg(1 << 20);

//===----------------------------------------------------------------------===//
// OMC translation
//===----------------------------------------------------------------------===//

void BM_OmcTranslate(benchmark::State &State) {
  const uint64_t LiveObjects = static_cast<uint64_t>(State.range(0));
  omc::ObjectManager Omc;
  uint64_t Cursor = 0x10000;
  std::vector<uint64_t> Bases;
  for (uint64_t I = 0; I != LiveObjects; ++I) {
    Omc.onAlloc(trace::AllocEvent{static_cast<trace::AllocSiteId>(I % 13),
                                  Cursor, 64, I, false});
    Bases.push_back(Cursor);
    Cursor += 96;
  }
  Rng R(7);
  std::vector<uint64_t> Queries(4096);
  for (uint64_t &Q : Queries)
    Q = Bases[R.nextBelow(Bases.size())] + R.nextBelow(64);
  for (auto _ : State) {
    for (uint64_t Q : Queries)
      benchmark::DoNotOptimize(Omc.translate(Q));
  }
  State.SetItemsProcessed(State.iterations() * Queries.size());
}
BENCHMARK(BM_OmcTranslate)->Arg(100)->Arg(10000)->Arg(300000);

/// The vpr/parser pattern: each instruction keeps hitting its own
/// object, but the instructions interleave, so a single shared MRU entry
/// misses on every access. Arg(0) uses the shared-entry translate(Addr),
/// Arg(1) the per-instruction MRU translate(Addr, Instr) the CDC uses.
void BM_OmcTranslateAlternating(benchmark::State &State) {
  const bool UseInstrMru = State.range(0) != 0;
  constexpr uint64_t Objects = 8;
  omc::ObjectManager Omc;
  uint64_t Bases[Objects];
  uint64_t Cursor = 0x10000;
  for (uint64_t I = 0; I != Objects; ++I) {
    Omc.onAlloc(trace::AllocEvent{static_cast<trace::AllocSiteId>(I),
                                  Cursor, 4096, I, false});
    Bases[I] = Cursor;
    Cursor += 8192;
  }
  uint64_t Offset = 0;
  for (auto _ : State) {
    for (uint64_t I = 0; I != Objects; ++I) {
      uint64_t Addr = Bases[I] + Offset;
      if (UseInstrMru)
        benchmark::DoNotOptimize(
            Omc.translate(Addr, static_cast<trace::InstrId>(I)));
      else
        benchmark::DoNotOptimize(Omc.translate(Addr));
    }
    Offset = (Offset + 8) & 0xfff;
  }
  State.SetItemsProcessed(State.iterations() * Objects);
}
BENCHMARK(BM_OmcTranslateAlternating)->Arg(0)->Arg(1);

//===----------------------------------------------------------------------===//
// Event-block decode (.orpt v1 interleaved vs v2 columnar)
//===----------------------------------------------------------------------===//

/// Synthesizes one event block of accesses whose address deltas need
/// exactly range(1) sleb bytes, encodes it in format version range(0),
/// and measures raw payload decode throughput — the inner loop of both
/// file replay and daemon EVENTS-frame ingest. Items = decoded events.
void BM_BlockDecode(benchmark::State &State) {
  const unsigned Version = static_cast<unsigned>(State.range(0));
  const unsigned DeltaBytes = static_cast<unsigned>(State.range(1));
  constexpr uint64_t NumEvents = 16384;

  // Largest magnitude an sleb of DeltaBytes still holds (6 payload bits
  // in the final byte, 7 in each before it); deltas draw from the upper
  // half of that range so every one encodes at the intended width.
  const uint64_t MaxMag = (1ull << (7 * DeltaBytes - 1)) - 1;
  Rng R(42);
  struct Ev {
    uint32_t Instr;
    uint64_t Addr, Time, Size;
    bool IsStore;
  };
  std::vector<Ev> Events(NumEvents);
  uint64_t Addr = 1ull << 60, Time = 0;
  for (uint64_t I = 0; I != NumEvents; ++I) {
    uint64_t Mag = MaxMag / 2 + 1 + R.nextBelow(MaxMag / 2);
    Addr = (I & 1) ? Addr - Mag : Addr + Mag;
    ++Time;
    Events[I] = {static_cast<uint32_t>(R.nextBelow(512)), Addr, Time,
                 (I % 4 == 0) ? 4ull : 8ull, (I & 3) == 0};
  }

  std::vector<uint8_t> Payload;
  if (Version == 1) {
    uint64_t PrevAddr = 0, PrevTime = 0;
    for (const Ev &E : Events) {
      uint8_t Tag = traceio::kOpAccess;
      if (E.IsStore)
        Tag |= traceio::kTagStore;
      if (E.Size == 8)
        Tag |= traceio::kTagSize8;
      Payload.push_back(Tag);
      encodeULEB128(E.Instr, Payload);
      encodeSLEB128(static_cast<int64_t>(E.Addr - PrevAddr), Payload);
      encodeSLEB128(static_cast<int64_t>(E.Time - PrevTime), Payload);
      if (E.Size != 8)
        encodeULEB128(E.Size, Payload);
      PrevAddr = E.Addr;
      PrevTime = E.Time;
    }
  } else {
    std::vector<uint8_t> Cols[5];
    uint64_t PrevAddr = 0, PrevTime = 0;
    for (const Ev &E : Events) {
      uint8_t Tag = traceio::kOpAccess;
      if (E.IsStore)
        Tag |= traceio::kTagStore;
      if (E.Size == 8)
        Tag |= traceio::kTagSize8;
      Cols[0].push_back(Tag);
      encodeULEB128(E.Instr, Cols[1]);
      encodeSLEB128(static_cast<int64_t>(E.Addr - PrevAddr), Cols[2]);
      encodeSLEB128(static_cast<int64_t>(E.Time - PrevTime), Cols[3]);
      if (E.Size != 8)
        encodeULEB128(E.Size, Cols[4]);
      PrevAddr = E.Addr;
      PrevTime = E.Time;
    }
    for (const std::vector<uint8_t> &Col : Cols) {
      encodeULEB128(Col.size(), Payload);
      Payload.insert(Payload.end(), Col.begin(), Col.end());
    }
  }

  std::string Err;
  traceio::DecodedBlock Block;
  uint64_t Sink = 0;
  for (auto _ : State) {
    bool Ok = traceio::decodeEventBlock(static_cast<uint8_t>(Version),
                                        Payload.data(), Payload.size(),
                                        NumEvents, Block, Err);
    for (const trace::AccessEvent &E : Block.Accesses)
      Sink += E.Addr;
    if (!Ok) {
      State.SkipWithError(Err.c_str());
      return;
    }
    benchmark::DoNotOptimize(Sink);
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(NumEvents));
}
BENCHMARK(BM_BlockDecode)
    ->ArgNames({"ver", "delta_bytes"})
    ->Args({1, 1})
    ->Args({2, 1})
    ->Args({1, 2})
    ->Args({2, 2})
    ->Args({1, 8})
    ->Args({2, 8});

//===----------------------------------------------------------------------===//
// LMAD compression
//===----------------------------------------------------------------------===//

void BM_LmadLinearStream(benchmark::State &State) {
  for (auto _ : State) {
    lmad::LmadCompressor C(3);
    for (int64_t I = 0; I != 20000; ++I)
      C.addPoint(lmad::Point{I, I * 8, I * 2});
    benchmark::DoNotOptimize(C.capturedPoints());
  }
  State.SetItemsProcessed(State.iterations() * 20000);
}
BENCHMARK(BM_LmadLinearStream);

void BM_LmadIrregularStream(benchmark::State &State) {
  Rng R(3);
  std::vector<lmad::Point> Points(20000);
  for (auto &P : Points)
    P = lmad::Point{static_cast<int64_t>(R.nextBelow(100)),
                    static_cast<int64_t>(R.nextBelow(4096)),
                    static_cast<int64_t>(R.nextBelow(100000))};
  for (auto _ : State) {
    lmad::LmadCompressor C(3);
    for (const auto &P : Points)
      C.addPoint(P);
    benchmark::DoNotOptimize(C.overflow().Dropped);
  }
  State.SetItemsProcessed(State.iterations() * 20000);
}
BENCHMARK(BM_LmadIrregularStream);

//===----------------------------------------------------------------------===//
// End-to-end pipeline cost per access
//===----------------------------------------------------------------------===//

void BM_PipelineNativeProbe(benchmark::State &State) {
  trace::MemoryInterface M;
  uint64_t Addr = M.heapAlloc(0, 4096);
  for (auto _ : State)
    M.load(0, Addr + (State.iterations() & 0xfff) / 8 * 8);
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_PipelineNativeProbe);

void BM_PipelineLeapProbe(benchmark::State &State) {
  core::ProfilingSession S;
  leap::LeapProfiler Leap;
  S.addConsumer(&Leap);
  uint64_t Addr = S.memory().heapAlloc(0, 4096);
  for (auto _ : State)
    S.memory().load(0, Addr + (State.iterations() & 0xfff) / 8 * 8);
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_PipelineLeapProbe);

void BM_PipelineWhompProbe(benchmark::State &State) {
  core::ProfilingSession S;
  whomp::WhompProfiler Whomp;
  S.addConsumer(&Whomp);
  uint64_t Addr = S.memory().heapAlloc(0, 4096);
  for (auto _ : State)
    S.memory().load(0, Addr + (State.iterations() & 0xfff) / 8 * 8);
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_PipelineWhompProbe);

/// Batch-size sweep over the probe->CDC->WHOMP path. Arg is the
/// MemoryInterface flush threshold; 1 reproduces the old per-event
/// delivery, the default is 128.
void BM_PipelineWhompBatch(benchmark::State &State) {
  core::ProfilingSession S;
  whomp::WhompProfiler Whomp;
  S.addConsumer(&Whomp);
  S.memory().setBatchCapacity(static_cast<size_t>(State.range(0)));
  uint64_t Addr = S.memory().heapAlloc(0, 4096);
  for (auto _ : State)
    S.memory().load(0, Addr + (State.iterations() & 0xfff) / 8 * 8);
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_PipelineWhompBatch)->Arg(1)->Arg(16)->Arg(64)->Arg(128)->Arg(256);

/// Whole-pipeline WHOMP benchmark: a complete instrumented run of one
/// workload analogue through probes, batching, OMC translation and the
/// 4-dimension OMSG. Items = profiled accesses, i.e. items/s is the
/// sustained WHOMP profiling rate on realistic access patterns.
void BM_PipelineWhompWorkload(benchmark::State &State) {
  workloads::WorkloadConfig Config;
  uint64_t Accesses = 0;
  for (auto _ : State) {
    core::ProfilingSession S;
    whomp::WhompProfiler Whomp;
    S.addConsumer(&Whomp);
    auto W = workloads::createVprA();
    benchmark::DoNotOptimize(
        W->run(S.memory(), S.registry(), Config));
    S.finish();
    Accesses += S.memory().accessCount();
    benchmark::DoNotOptimize(Whomp.sizes().total());
  }
  State.SetItemsProcessed(static_cast<int64_t>(Accesses));
}
BENCHMARK(BM_PipelineWhompWorkload)->Unit(benchmark::kMillisecond);

/// Thread-scaling sweep over the full replay pipeline (the --threads
/// flag of orp-trace replay): record one vpr-a trace up front, then
/// per iteration replay it with double-buffered decode plus threaded
/// WHOMP and LEAP. Args are {thread count, telemetry on/off}; {1, on}
/// is the serial baseline, and every arg produces byte-identical
/// profiles. The on/off pairs at equal thread counts measure the
/// telemetry subsystem's overhead (EXPERIMENTS.md gates it at 3%).
/// Items = replayed events.
void BM_PipelineReplayThreads(benchmark::State &State) {
  static const std::string TracePath = [] {
    std::string Path = "perf_replay_threads.orpt";
    core::ProfilingSession S;
    traceio::TraceWriter Writer(Path, S.registry(),
                                memsim::AllocPolicy::FirstFit, /*Seed=*/0);
    S.addRawSink(&Writer);
    workloads::WorkloadConfig Config;
    Config.Scale = 2;
    workloads::createVprA()->run(S.memory(), S.registry(), Config);
    S.finish();
    Writer.close();
    return Path;
  }();
  unsigned Threads = static_cast<unsigned>(State.range(0));
  bool Telemetry = State.range(1) != 0;
  traceio::TraceReader Reader;
  if (!Reader.open(TracePath)) {
    State.SkipWithError("cannot open replay trace");
    return;
  }
  telemetry::setEnabled(Telemetry);
  uint64_t Events = 0;
  session::SessionConfig Config = session::recordedConfig(Reader);
  Config.ProfilerThreads = Threads;
  for (auto _ : State) {
    session::ProfileSession Session("replay", Config);
    if (!Session.replayFrom(Reader, Threads)) {
      State.SkipWithError("replay failed on a valid trace");
      return;
    }
    session::SessionArtifacts A = Session.finalize();
    Events += A.Events;
    benchmark::DoNotOptimize(A.Omsg.size());
    benchmark::DoNotOptimize(A.Leap.size());
  }
  telemetry::setEnabled(true);
  State.SetItemsProcessed(static_cast<int64_t>(Events));
}
BENCHMARK(BM_PipelineReplayThreads)
    ->Args({1, 1})
    ->Args({1, 0})
    ->Args({2, 1})
    ->Args({2, 0})
    ->Args({4, 1})
    ->Args({4, 0})
    ->Args({8, 1})
    ->Args({8, 0})
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

//===----------------------------------------------------------------------===//
// Tiered placement simulation
//===----------------------------------------------------------------------===//

/// Tiered address-space replay rate per policy (0 = first-touch,
/// 1 = lru, 2 = advised) at a 25% fast-tier fraction. Measures the
/// payoff half of the advisor loop: trace-event translation through the
/// OMC rebuild plus the per-access tier bookkeeping.
/// Items = replayed events.
void BM_TieredSim(benchmark::State &State) {
  static const std::string TracePath = [] {
    std::string Path = "perf_tiered.orpt";
    core::ProfilingSession S;
    traceio::TraceWriter Writer(Path, S.registry(),
                                memsim::AllocPolicy::FirstFit, /*Seed=*/7);
    S.addRawSink(&Writer);
    workloads::WorkloadConfig Config;
    workloads::createMcfA()->run(S.memory(), S.registry(), Config);
    S.finish();
    Writer.close();
    return Path;
  }();
  traceio::TraceReader Reader;
  if (!Reader.open(TracePath)) {
    State.SkipWithError("cannot open tiered-sim trace");
    return;
  }
  // Profile once, outside the timed region, so the advised policy has a
  // real report to place from.
  static const advisor::AdvisorReport Report = [&Reader] {
    session::ProfileSession Session("profile",
                                    session::recordedConfig(Reader));
    (void)Session.replayFrom(Reader);
    (void)Session.finalize();
    advisor::HotColdClassifier Classifier;
    return Classifier.classify(
        leap::LeapProfileData::fromProfiler(*Session.leap()),
        whomp::OmsgArchive::build(*Session.whomp(), &Session.core().omc()));
  }();
  advisor::TieredSimOptions Opts;
  Opts.Policy = static_cast<memsim::TierPolicy>(State.range(0));
  uint64_t PeakLive = 0;
  std::string Err;
  if (!advisor::peakLiveBytes(Reader, PeakLive, Err)) {
    State.SkipWithError("peak-live scan failed on a valid trace");
    return;
  }
  Opts.FastCapacityBytes = PeakLive / 4;
  if (Opts.Policy == memsim::TierPolicy::Advised)
    Opts.Advice = &Report;
  uint64_t Events = 0;
  for (auto _ : State) {
    advisor::TieredSimResult Result;
    if (!advisor::simulateTiered(Reader, Opts, Result, Err)) {
      State.SkipWithError("tiered simulation failed on a valid trace");
      return;
    }
    Events += Result.Accesses + Result.Allocs + Result.Frees;
    benchmark::DoNotOptimize(Result.Stats.FastHits);
  }
  State.SetItemsProcessed(static_cast<int64_t>(Events));
}
BENCHMARK(BM_TieredSim)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
