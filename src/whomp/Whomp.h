//===- whomp/Whomp.h - Whole-stream memory profiler ------------*- C++ -*-===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// WHOMP, the paper's lossless whole-stream memory profiler (Section 3):
/// the translated object-relative stream is decomposed horizontally
/// "along all four dimensions (instruction ID, group, object and offset)"
/// and "each of these streams is then fed into a separate Sequitur
/// compressor". The result is the object-relative multi-dimensional
/// Sequitur grammar (OMSG), compared against the conventional raw-address
/// Sequitur grammar (RASG, in src/baseline) in Figure 5.
///
//===----------------------------------------------------------------------===//

#ifndef ORP_WHOMP_WHOMP_H
#define ORP_WHOMP_WHOMP_H

#include "core/Decomposition.h"
#include "core/ObjectRelative.h"
#include "sequitur/Sequitur.h"
#include "telemetry/Registry.h"

#include <array>
#include <cstddef>
#include <memory>
#include <optional>

namespace orp {
namespace whomp {

/// StreamCompressor adapter over a Sequitur grammar, and the one place
/// that knows its phase: it holds the builder until finish() and the
/// image after it. \p Dimension names the stream in diagnostics.
class SequiturStreamCompressor : public core::StreamCompressor {
public:
  explicit SequiturStreamCompressor(const char *Dimension = "")
      : Dimension(Dimension) {}

  void append(uint64_t Symbol) override { Builder->append(Symbol); }
  void appendBatch(std::span<const uint64_t> Symbols) override {
    // One virtual call for the whole run; the grammar's digram table and
    // arena stay hot across the inner loop.
    for (uint64_t Symbol : Symbols)
      Builder->append(Symbol);
  }
  size_t serializedSizeBytes() const override {
    return Builder ? Builder->serializedSizeBytes()
                   : Image->serializedSizeBytes();
  }

  /// Ends the stream: validates the builder (level 2), seals it into its
  /// image (SequiturGrammar::seal) and validates the image (level 2).
  /// Runs on the thread that owns the grammar, a dimension worker in
  /// threaded mode. A no-op once finished.
  void finish() override;

  /// True once finish() sealed the grammar.
  bool finished() const { return !Builder; }

  /// Gives back and rebuilds the builder's digram index
  /// (SequiturGrammar::releaseIndex / rebuildIndex); no-ops once
  /// finished.
  void releaseIndex();
  void rebuildIndex();
  /// The builder's indexReleased() and indexBytes(); false and 0 once
  /// finished.
  bool indexReleased() const;
  size_t indexBytes() const;

  /// The builder; valid only before finish().
  const sequitur::SequiturGrammar &grammar() const;
  /// The image; valid only after finish().
  const sequitur::GrammarImage &image() const;

  /// Readings valid in both phases: the builder's before finish(), the
  /// image's after it.
  sequitur::GrammarStats stats() const;
  size_t footprintBytes() const;

private:
  const char *Dimension;
  std::optional<sequitur::SequiturGrammar> Builder{std::in_place};
  std::optional<sequitur::GrammarImage> Image;
};

/// Serialized per-dimension sizes of an OMSG.
struct OmsgSizes {
  size_t Instr = 0;
  size_t Group = 0;
  size_t Object = 0;
  size_t Offset = 0;

  /// Total OMSG size.
  size_t total() const { return Instr + Group + Object + Offset; }
};

/// The WHOMP profiler: an object-relative tuple consumer producing an
/// OMSG. Attach to a Cdc (see core::ProfilingSession).
class WhompProfiler : public core::OrTupleConsumer {
public:
  /// With \p Threads > 1, each of the four dimension grammars runs on
  /// its own worker thread (DESIGN.md section 10). The OMSG is
  /// byte-identical either way; at most four workers are ever used,
  /// larger values are equivalent to 4. Periodic level-2 grammar
  /// validation is deferred to finish() in threaded mode — the workers
  /// own the grammars until then. The whomp.* gauges are published by a
  /// collector on \p Collectors.
  explicit WhompProfiler(
      unsigned Threads = 1,
      telemetry::Registry &Collectors = telemetry::Registry::global());

  void consume(const core::OrTuple &Tuple) override;
  void consumeBatch(std::span<const core::OrTuple> Tuples) override;
  /// Validates the grammars (level 2) and seals all four, each on the
  /// thread that owns it (in threaded mode its dimension worker, after
  /// its last chunk), then joins the workers: the finished OMSG is four
  /// images, with no digram index and no slab arena left; imageFor()
  /// returns them, and sizes() and the whomp.* gauges read them and the
  /// counters kept at the seal. No tuple may follow.
  void finish() override;

  /// Gives back the four grammars' digram indexes between tuples
  /// (SequiturGrammar::releaseIndex). A no-op in threaded mode, where the
  /// workers own the grammars, and once finished.
  void releaseIndexes();
  /// Rebuilds released indexes exactly (SequiturGrammar::rebuildIndex);
  /// a no-op when none is released.
  void rebuildIndexes();
  /// True while the indexes are released.
  bool indexesReleased() const;
  /// The four grammars' indexBytes() and body symbols summed; 0 in
  /// threaded mode.
  size_t indexBytes() const;
  uint64_t bodySymbols() const;

  /// Returns the number of tuples compressed.
  uint64_t tuplesSeen() const { return Tuples; }

  /// The compressor of one OMSG dimension, whose stats(),
  /// serializedSizeBytes() and footprintBytes() answer before and after
  /// finish(). \p D must be one of Instruction, Group, Object, Offset.
  const SequiturStreamCompressor &compressorFor(core::Dimension D) const;

  /// The builder of one OMSG dimension; valid only before finish().
  const sequitur::SequiturGrammar &grammarFor(core::Dimension D) const {
    return compressorFor(D).grammar();
  }
  /// The image of one OMSG dimension; valid only after finish().
  const sequitur::GrammarImage &imageFor(core::Dimension D) const {
    return compressorFor(D).image();
  }

  /// Returns the serialized per-dimension and total sizes.
  OmsgSizes sizes() const;

private:
  /// Level-2 checked builds only: runs GrammarValidator over all four
  /// dimension grammars and aborts (checkFailed) on any violation.
  void validateGrammars() const;

  /// compressorFor(), for releaseIndexes() and rebuildIndexes().
  SequiturStreamCompressor &mutableCompressorFor(core::Dimension D);

  core::HorizontalDecomposer Decomposer;
  uint64_t Tuples = 0;
  /// Tuple count at which the next periodic level-2 validation fires.
  uint64_t NextValidateAt;
  /// Publishes grammar occupancy (serial mode / after finish) and
  /// dimension-worker queue counters into whomp.* gauges at snapshot
  /// time. While the workers own the grammars, only the worker/queue
  /// numbers — which are safe to sample from any thread — are emitted.
  telemetry::CollectorHandle Collector;
};

} // namespace whomp
} // namespace orp

#endif // ORP_WHOMP_WHOMP_H
