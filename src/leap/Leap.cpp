//===- leap/Leap.cpp - Loss-enhanced access profiler ---------------------===//

#include "leap/Leap.h"

#include "leap/LeapProfileData.h"
#include "support/Error.h"
#include "support/Statistics.h"
#include "support/VarInt.h"

#include <set>
#include <string>

using namespace orp;
using namespace orp::leap;

namespace {

/// Appends \p Tuple to its (instruction, group) substream in \p Map as
/// an (object, offset, time) point, creating the substream's LMAD
/// compressor on its first tuple.
void appendTo(std::map<core::VerticalKey, lmad::LmadCompressor> &Map,
              const core::OrTuple &Tuple, unsigned MaxLmads) {
  lmad::LmadCompressor &Compressor =
      Map.try_emplace(core::VerticalKey{Tuple.Instr, Tuple.Group},
                      /*Dims=*/3u, MaxLmads)
          .first->second;
  Compressor.addPoint(lmad::Point{static_cast<int64_t>(Tuple.Object),
                                  static_cast<int64_t>(Tuple.Offset),
                                  static_cast<int64_t>(Tuple.Time)});
}

} // namespace

LeapProfiler::LeapProfiler(unsigned MaxLmads, unsigned Threads,
                           telemetry::Registry &Collectors)
    : MaxLmads(MaxLmads) {
  if (Threads > 1) {
    // One worker per shard. A key always hashes to the same shard, so a
    // worker exclusively owns every substream it ever creates.
    Pending.resize(Threads);
    Shards.resize(Threads);
    Workers.reserve(Threads);
    for (unsigned S = 0; S != Threads; ++S) {
      Pending[S].reserve(ThreadChunkTuples);
      SubstreamMap *Shard = &Shards[S];
      Workers.push_back(std::make_unique<Worker>(
          ThreadQueueDepth,
          [Shard, MaxLmads](std::vector<core::OrTuple> &Chunk) {
            for (const core::OrTuple &Tuple : Chunk)
              appendTo(*Shard, Tuple, MaxLmads);
          }));
    }
  }
  // Registered last: a snapshot may run the collector at once.
  Collector = Collectors.addCollector([this](telemetry::Registry &R) {
    R.gauge("leap.tuples").set(static_cast<int64_t>(Tuples));
    R.gauge("leap.instructions").set(static_cast<int64_t>(Instrs.size()));
    // SubstreamsByKey holds every key only once this thread owns the
    // substreams again.
    if (!threaded())
      R.gauge("leap.substreams")
          .set(static_cast<int64_t>(SubstreamsByKey.size()));
    for (size_t I = 0; I != Workers.size(); ++I) {
      support::WorkerTelemetry WT = Workers[I]->telemetry();
      std::string P = "leap.worker." + std::to_string(I) + ".";
      R.gauge(P + "queue_depth").set(static_cast<int64_t>(WT.Queue.Depth));
      R.gauge(P + "queue_high_watermark")
          .set(static_cast<int64_t>(WT.Queue.HighWatermark));
      R.gauge(P + "queue_pushes").set(static_cast<int64_t>(WT.Queue.Pushes));
      R.gauge(P + "queue_push_stalls")
          .set(static_cast<int64_t>(WT.Queue.PushStalls));
      R.gauge(P + "busy_ns").set(static_cast<int64_t>(WT.BusyNanos));
    }
  });
}

LeapProfiler::~LeapProfiler() {
  // The workers append into Shards, which member destruction tears down
  // before Workers: join them here, while every shard is still alive.
  if (threaded())
    joinWorkers();
}

void LeapProfiler::flushShard(size_t S) {
  std::vector<core::OrTuple> Chunk;
  Chunk.reserve(ThreadChunkTuples);
  Chunk.swap(Pending[S]);
  // Workers only close in joinWorkers(), after the last flush — a
  // refused chunk here would silently drop tuples.
  if (!Workers[S]->submit(std::move(Chunk)))
    ORP_FATAL_ERROR("leap: substream shard closed mid-stream");
}

void LeapProfiler::joinWorkers() {
  for (size_t S = 0; S != Workers.size(); ++S)
    if (!Pending[S].empty())
      flushShard(S);
  for (auto &W : Workers)
    W->finish(); // Drains the queue and joins.
  Joined = true;
}

void LeapProfiler::consume(const core::OrTuple &Tuple) {
  consumeBatch(std::span<const core::OrTuple>(&Tuple, 1));
}

void LeapProfiler::consumeBatch(std::span<const core::OrTuple> Batch) {
  Tuples += Batch.size();
  for (const core::OrTuple &Tuple : Batch) {
    InstrSummary &Summary = Instrs[Tuple.Instr];
    ++Summary.ExecCount;
    if (Tuple.IsStore)
      ++Summary.StoreCount;
    if (!threaded()) {
      appendTo(SubstreamsByKey, Tuple, MaxLmads);
      continue;
    }
    size_t S = core::VerticalKeyHash{}({Tuple.Instr, Tuple.Group}) %
               Workers.size();
    Pending[S].push_back(Tuple);
    if (Pending[S].size() >= ThreadChunkTuples)
      flushShard(S);
  }
}

void LeapProfiler::finish() {
  if (!threaded())
    return;
  joinWorkers();
  Pending.clear();
  // Hash routing makes the shard key sets disjoint, so merging into the
  // ordered map yields the same substreams for any worker count.
  for (SubstreamMap &Shard : Shards)
    SubstreamsByKey.merge(Shard);
  Shards.clear();
}

void LeapProfiler::forEachSubstream(
    const std::function<void(const core::VerticalKey &,
                             const lmad::LmadCompressor &)> &Fn) const {
  for (const auto &[Key, Compressor] : SubstreamsByKey)
    Fn(Key, Compressor);
}

const lmad::LmadCompressor *
LeapProfiler::lookup(const core::VerticalKey &Key) const {
  auto It = SubstreamsByKey.find(Key);
  return It == SubstreamsByKey.end() ? nullptr : &It->second;
}

size_t LeapProfiler::serializedSizeBytes() const {
  size_t Size = LeapProfileData::kHeaderSize;
  Size += sizeULEB128(MaxLmads);
  Size += sizeULEB128(SubstreamsByKey.size());
  forEachSubstream([&](const core::VerticalKey &Key,
                       const lmad::LmadCompressor &Compressor) {
    Size += sizeULEB128(Key.Instr);
    Size += sizeULEB128(Key.Group);
    Size += sizeULEB128(Compressor.totalPoints());
    Size += Compressor.serializedSizeBytes();
  });
  Size += sizeULEB128(Instrs.size());
  // orp-analyze: allow(unordered-serialize): order-independent size sum.
  for (const auto &[Instr, Summary] : Instrs) {
    Size += sizeULEB128(Instr);
    Size += sizeULEB128(Summary.ExecCount);
    Size += sizeULEB128(Summary.StoreCount);
  }
  return Size;
}

double LeapProfiler::accessesCapturedPercent() const {
  uint64_t Captured = 0;
  uint64_t Total = 0;
  forEachSubstream([&](const core::VerticalKey &,
                       const lmad::LmadCompressor &Compressor) {
    Captured += Compressor.capturedPoints();
    Total += Compressor.totalPoints();
  });
  return percentOf(static_cast<double>(Captured),
                   static_cast<double>(Total));
}

double LeapProfiler::instructionsCapturedPercent() const {
  if (Instrs.empty())
    return 0.0;
  std::set<trace::InstrId> Overflowed;
  forEachSubstream([&](const core::VerticalKey &Key,
                       const lmad::LmadCompressor &Compressor) {
    if (!Compressor.fullyCaptured())
      Overflowed.insert(Key.Instr);
  });
  uint64_t Full = Instrs.size() - Overflowed.size();
  return percentOf(static_cast<double>(Full),
                   static_cast<double>(Instrs.size()));
}
