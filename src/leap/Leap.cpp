//===- leap/Leap.cpp - Loss-enhanced access profiler ---------------------===//

#include "leap/Leap.h"

#include "leap/LeapProfileData.h"
#include "support/Statistics.h"
#include "support/VarInt.h"

#include <set>
#include <string>

using namespace orp;
using namespace orp::leap;

LeapProfiler::LeapProfiler(unsigned MaxLmads, unsigned Threads,
                           telemetry::Registry &Collectors)
    : MaxLmads(MaxLmads),
      Decomposer(
          [MaxLmads](core::VerticalKey) {
            return std::make_unique<LeapSubstream>(MaxLmads);
          },
          Threads),
      Collector(Collectors.addCollector(
          [this](telemetry::Registry &R) {
            R.gauge("leap.tuples").set(static_cast<int64_t>(Tuples));
            R.gauge("leap.instructions")
                .set(static_cast<int64_t>(Instrs.size()));
            // numSubstreams() reads the merged map, which is only valid
            // once this thread owns the substreams again.
            if (!Decomposer.threaded())
              R.gauge("leap.substreams")
                  .set(static_cast<int64_t>(Decomposer.numSubstreams()));
            std::vector<support::WorkerTelemetry> WT =
                Decomposer.workerTelemetry();
            for (size_t I = 0; I != WT.size(); ++I) {
              std::string P =
                  "leap.worker." + std::to_string(I) + ".";
              R.gauge(P + "queue_depth")
                  .set(static_cast<int64_t>(WT[I].Queue.Depth));
              R.gauge(P + "queue_high_watermark")
                  .set(static_cast<int64_t>(WT[I].Queue.HighWatermark));
              R.gauge(P + "queue_pushes")
                  .set(static_cast<int64_t>(WT[I].Queue.Pushes));
              R.gauge(P + "queue_push_stalls")
                  .set(static_cast<int64_t>(WT[I].Queue.PushStalls));
              R.gauge(P + "busy_ns")
                  .set(static_cast<int64_t>(WT[I].BusyNanos));
            }
          })) {}

void LeapProfiler::consume(const core::OrTuple &Tuple) {
  ++Tuples;
  InstrSummary &Summary = Instrs[Tuple.Instr];
  ++Summary.ExecCount;
  if (Tuple.IsStore)
    ++Summary.StoreCount;
  Decomposer.consume(Tuple);
}

void LeapProfiler::forEachSubstream(
    const std::function<void(const core::VerticalKey &,
                             const lmad::LmadCompressor &)> &Fn) const {
  Decomposer.forEach([&](const core::VerticalKey &Key,
                         const core::SubstreamConsumer &Sub) {
    Fn(Key, static_cast<const LeapSubstream &>(Sub).compressor());
  });
}

const lmad::LmadCompressor *
LeapProfiler::lookup(const core::VerticalKey &Key) const {
  const core::SubstreamConsumer *Sub = Decomposer.lookup(Key);
  if (!Sub)
    return nullptr;
  return &static_cast<const LeapSubstream &>(*Sub).compressor();
}

size_t LeapProfiler::serializedSizeBytes() const {
  size_t Size = LeapProfileData::kHeaderSize;
  Size += sizeULEB128(MaxLmads);
  Size += sizeULEB128(Decomposer.numSubstreams());
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
