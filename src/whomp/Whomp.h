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

#include "core/ObjectRelative.h"
#include "sequitur/Sequitur.h"
#include "support/WorkerPool.h"
#include "telemetry/Registry.h"

#include <array>
#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <vector>

namespace orp {
namespace whomp {

/// The Sequitur compressor of one OMSG dimension stream, and the one
/// place that knows its phase: it holds the builder until finish() and
/// the image after it. \p Dimension names the stream in diagnostics.
class SequiturStreamCompressor {
public:
  explicit SequiturStreamCompressor(const char *Dimension = "")
      : Dimension(Dimension) {}

  /// Appends the next symbol(s) of the stream; valid only before
  /// finish().
  void append(uint64_t Symbol) { Builder->append(Symbol); }
  void appendBatch(std::span<const uint64_t> Symbols) {
    for (uint64_t Symbol : Symbols)
      Builder->append(Symbol);
  }
  /// Serialized byte size of the stream so far (builder or image).
  size_t serializedSizeBytes() const {
    return Builder ? Builder->serializedSizeBytes()
                   : Image->serializedSizeBytes();
  }

  /// Ends the stream: validates the builder (level 2), seals it into its
  /// image (SequiturGrammar::seal) and validates the image (level 2).
  /// Runs on the thread that owns the grammar, a dimension worker in
  /// threaded mode. A no-op once finished.
  void finish();

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
  /// Symbols accumulated per dimension before a chunk is handed to that
  /// dimension's worker (threaded mode only).
  static constexpr size_t ThreadChunkSymbols = 4096;
  /// Chunks each dimension worker may buffer before the producer blocks.
  static constexpr size_t ThreadQueueDepth = 4;

  /// With \p Threads > 1, each of the four dimension grammars runs on
  /// its own worker thread (DESIGN.md section 10), fed chunks of its
  /// symbol stream through a bounded SPSC ring; the worker exclusively
  /// owns its grammar until finish(), so the append path takes no locks
  /// and each grammar sees exactly the serial symbol order. The OMSG is
  /// byte-identical either way; at most four workers are ever used,
  /// larger values are equivalent to 4. Periodic level-2 grammar
  /// validation is deferred to finish() in threaded mode — the workers
  /// own the grammars until then. The whomp.* gauges are published by a
  /// collector on \p Collectors.
  explicit WhompProfiler(
      unsigned Threads = 1,
      telemetry::Registry &Collectors = telemetry::Registry::global());
  /// Delivers buffered chunks and joins the workers, with or without a
  /// prior finish().
  ~WhompProfiler();
  WhompProfiler(const WhompProfiler &) = delete;
  WhompProfiler &operator=(const WhompProfiler &) = delete;

  /// A one-tuple consumeBatch().
  void consume(const core::OrTuple &Tuple) override;
  /// Splits the batch one dimension at a time (dimension outer, tuple
  /// inner): each grammar then sees a dense run of symbols with its own
  /// state hot in cache. In threaded mode the symbols go to the pending
  /// chunks, which are handed over once they reach ThreadChunkSymbols.
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
  using Worker = support::QueueWorker<std::vector<uint64_t>>;

  /// True while the dimension workers own the grammars: threaded mode,
  /// before finish(). The grammar accessors must not be used then.
  bool threaded() const { return !Workers.empty() && !Joined; }

  /// Level-2 checked builds only: runs GrammarValidator over all four
  /// dimension grammars and aborts (checkFailed) on any violation.
  void validateGrammars() const;

  /// Hands every dimension's pending chunk to its worker.
  void flushPending();

  /// The four dimension compressors, indexed by core::Dimension
  /// (Instruction, Group, Object, Offset).
  std::array<SequiturStreamCompressor, 4> Compressors;
  /// Scratch symbol buffer of the serial consumeBatch().
  std::vector<uint64_t> SymbolBatch;
  /// Per-dimension symbol chunks being filled by the producer.
  std::array<std::vector<uint64_t>, 4> Pending;
  /// One worker per dimension, parallel to Compressors (empty in serial
  /// mode). Joined by finish() or the destructor and kept afterwards:
  /// their telemetry() is exact once joined.
  std::vector<std::unique_ptr<Worker>> Workers;
  /// Set once finish() joined the workers.
  bool Joined = false;
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
