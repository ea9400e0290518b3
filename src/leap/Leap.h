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

#include "core/Decomposition.h"
#include "core/ObjectRelative.h"
#include "lmad/LmadCompressor.h"
#include "telemetry/Registry.h"

#include <cstdint>
#include <functional>
#include <unordered_map>

namespace orp {
namespace leap {

/// One (instruction, group) substream: a 3-dimensional LMAD compressor
/// over (object, offset, time) points.
class LeapSubstream : public core::SubstreamConsumer {
public:
  explicit LeapSubstream(unsigned MaxLmads)
      : Compressor(/*Dims=*/3, MaxLmads) {}

  void append(const core::OrTuple &Tuple) override {
    Compressor.addPoint(lmad::Point{
        static_cast<int64_t>(Tuple.Object),
        static_cast<int64_t>(Tuple.Offset),
        static_cast<int64_t>(Tuple.Time)});
  }

  /// Returns the LMAD set of this substream.
  const lmad::LmadCompressor &compressor() const { return Compressor; }

private:
  lmad::LmadCompressor Compressor;
};

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
  /// With \p Threads > 1, the (instruction, group) substreams are
  /// sharded by hash across that many worker threads (DESIGN.md
  /// section 10); the profile is identical either way. The accessors
  /// below must not be called before finish() in threaded mode.
  /// The leap.* gauges are published by a collector on \p Collectors.
  explicit LeapProfiler(
      unsigned MaxLmads = lmad::LmadCompressor::DefaultMaxLmads,
      unsigned Threads = 1,
      telemetry::Registry &Collectors = telemetry::Registry::global());

  void consume(const core::OrTuple &Tuple) override;
  void finish() override { Decomposer.finish(); }

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
  unsigned MaxLmads;
  core::VerticalDecomposer Decomposer;
  std::unordered_map<trace::InstrId, InstrSummary> Instrs;
  uint64_t Tuples = 0;
  /// Publishes tuple/substream/instruction counts (substreams only once
  /// this thread owns them — serial mode or after finish()) and shard-
  /// worker queue counters into leap.* gauges at snapshot time.
  telemetry::CollectorHandle Collector;
};

} // namespace leap
} // namespace orp

#endif // ORP_LEAP_LEAP_H
