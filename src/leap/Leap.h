//===- leap/Leap.h - Loss-enhanced access profiler -------------*- C++ -*-===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// LEAP, the paper's lossy profiler (Section 4): "the SCC decomposes the
/// stream vertically by instruction id and then by group to get a number
/// of (object, offset, time) streams. These streams are then sent to a
/// linear compressor" with a bounded number of LMADs ("we chose a
/// maximum of 30 LMADs for a given (instruction-id, group) pair").
/// Overflowing streams degrade to an initial-part sample plus min/max/
/// granularity summary, which is what makes the profiler lossy.
///
/// The profile is "indexed by load and store instructions": per
/// instruction, LEAP also keeps exact execution counts (needed as the
/// denominator of the paper's memory dependence frequency).
///
//===----------------------------------------------------------------------===//

#ifndef ORP_LEAP_LEAP_H
#define ORP_LEAP_LEAP_H

#include "core/ObjectRelative.h"
#include "lmad/LmadCompressor.h"
#include "support/WorkerPool.h"
#include "telemetry/Registry.h"

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

namespace orp {
namespace leap {

/// Dimension indices of the (object, offset, time) points LEAP stores.
enum LeapDim : unsigned { DimObject = 0, DimOffset = 1, DimTime = 2 };

/// Per-instruction aggregate kept alongside the LMAD sets. Loads and
/// stores are counted separately: an instruction that issues both (for
/// example a read-modify-write probe site) keeps both tallies, instead
/// of the kind of whichever access happened to arrive last. Both
/// counters fold by addition when profiles are merged.
struct InstrSummary {
  uint64_t ExecCount = 0;  ///< Accesses executed (profiled stream only).
  uint64_t StoreCount = 0; ///< Of those, how many were stores.

  /// An instruction is classified as a store if it ever stored.
  bool isStore() const { return StoreCount != 0; }
};

/// The LEAP profiler: attach as an OrTupleConsumer to a Cdc.
class LeapProfiler : public core::OrTupleConsumer {
public:
  /// Tuples accumulated per shard before a chunk is handed to that
  /// shard's worker (threaded mode only).
  static constexpr size_t ThreadChunkTuples = 1024;
  /// Chunks each shard worker may buffer before the producer blocks.
  static constexpr size_t ThreadQueueDepth = 4;

  /// With \p Threads > 1, the (instruction, group) substreams are
  /// sharded across that many worker threads by VerticalKeyHash
  /// (DESIGN.md section 10): a key always routes to the same worker,
  /// each worker exclusively owns the substreams of its shard (no locks
  /// on the append path), and FIFO chunk order means every substream
  /// sees its tuples in exactly the serial order. finish() merges the
  /// shards into one key-sorted map, so the profile is identical for any
  /// thread count. The accessors below must not be called before
  /// finish() in threaded mode. The leap.* gauges are published by a
  /// collector on \p Collectors.
  explicit LeapProfiler(
      unsigned MaxLmads = lmad::LmadCompressor::DefaultMaxLmads,
      unsigned Threads = 1,
      telemetry::Registry &Collectors = telemetry::Registry::global());
  /// Delivers buffered chunks and joins the workers, with or without a
  /// prior finish().
  ~LeapProfiler();
  LeapProfiler(const LeapProfiler &) = delete;
  LeapProfiler &operator=(const LeapProfiler &) = delete;

  /// A one-tuple consumeBatch().
  void consume(const core::OrTuple &Tuple) override;
  void consumeBatch(std::span<const core::OrTuple> Tuples) override;
  /// Flushes pending chunks, joins the workers and merges the shards
  /// (threaded mode; a no-op in serial mode).
  void finish() override;

  /// Returns the number of tuples profiled.
  uint64_t tuplesSeen() const { return Tuples; }

  /// Returns the per-substream descriptor cap this profiler runs with.
  unsigned maxLmads() const { return MaxLmads; }

  /// Returns per-instruction aggregates (instructions that executed).
  const std::unordered_map<trace::InstrId, InstrSummary> &
  instructions() const {
    return Instrs;
  }

  /// Iterates all (instruction, group) LMAD sets in key order.
  void forEachSubstream(
      const std::function<void(const core::VerticalKey &,
                               const lmad::LmadCompressor &)> &Fn) const;

  /// Returns the LMAD set for \p Key, or nullptr.
  const lmad::LmadCompressor *lookup(const core::VerticalKey &Key) const;

  /// Serialized size of the whole profile: substream keys, LMAD sets,
  /// overflow summaries and instruction counters. Numerator-denominator
  /// of Table 1's compression ratio.
  size_t serializedSizeBytes() const;

  /// Percentage of all profiled accesses represented inside LMADs
  /// (Table 1, "Accesses captured").
  double accessesCapturedPercent() const;

  /// Percentage of instructions whose every substream was fully captured
  /// (Table 1, "Instructions captured").
  double instructionsCapturedPercent() const;

private:
  using SubstreamMap = std::map<core::VerticalKey, lmad::LmadCompressor>;
  using Worker = support::QueueWorker<std::vector<core::OrTuple>>;

  /// True while the shard workers own the substreams: threaded mode,
  /// before finish().
  bool threaded() const { return !Workers.empty() && !Joined; }

  /// Hands shard \p S's pending chunk to its worker.
  void flushShard(size_t S);
  /// Hands over every pending chunk and joins the workers.
  void joinWorkers();

  unsigned MaxLmads;
  std::unordered_map<trace::InstrId, InstrSummary> Instrs;
  uint64_t Tuples = 0;
  /// One worker per shard (empty in serial mode). Joined by finish() or
  /// the destructor and kept afterwards: their telemetry() is exact once
  /// joined.
  std::vector<std::unique_ptr<Worker>> Workers;
  /// Set once the workers are joined (finish() or the destructor).
  bool Joined = false;
  /// Per-shard tuple chunks being filled by the producer.
  std::vector<std::vector<core::OrTuple>> Pending;
  /// Shards[S] is owned by Workers[S]'s thread until finish() merges it
  /// into SubstreamsByKey. Declared after Workers, so it is destroyed
  /// first: the destructor must join the workers before that.
  std::vector<SubstreamMap> Shards;
  /// Every substream in key order: the serial path appends here, and
  /// finish() merges the shards here.
  SubstreamMap SubstreamsByKey;
  /// Publishes tuple/substream/instruction counts (substreams only once
  /// this thread owns them — serial mode or after finish()) and shard-
  /// worker queue counters into leap.* gauges at snapshot time.
  telemetry::CollectorHandle Collector;
};

} // namespace leap
} // namespace orp

#endif // ORP_LEAP_LEAP_H
