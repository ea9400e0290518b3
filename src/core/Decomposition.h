//===- core/Decomposition.h - Horizontal/vertical decomposition -*- C++ -*-===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's separation component (Section 2.2):
///
/// * Horizontal decomposition "separates the stream into its dimensions"
///   — a single stream of tuples becomes one stream per tuple element;
/// * Vertical decomposition "collects objects which share the same value
///   in one dimension" — e.g. one substream per instruction-id, which can
///   be decomposed further (by group) into simpler sub-substreams.
///
/// Both decomposers optionally run their compressors on worker threads
/// (the deterministic parallel pipeline, DESIGN.md section 10). The
/// decomposition itself is what makes this safe: every substream is an
/// independent sequence, so handing each one to a dedicated worker that
/// exclusively owns its compressor preserves per-substream order exactly
/// — the parallel output is byte-identical to the serial one, only the
/// thread that appends changes.
///
//===----------------------------------------------------------------------===//

#ifndef ORP_CORE_DECOMPOSITION_H
#define ORP_CORE_DECOMPOSITION_H

#include "core/ObjectRelative.h"
#include "core/StreamCompressor.h"
#include "support/WorkerPool.h"

#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

namespace orp {
namespace core {

/// SCC front half for horizontal decomposition: splits the incoming tuple
/// stream into one symbol stream per selected dimension and feeds each
/// into its own compressor.
class HorizontalDecomposer : public OrTupleConsumer {
public:
  /// Symbols accumulated per dimension before a chunk is handed to that
  /// dimension's worker (threaded mode only).
  static constexpr size_t ThreadChunkSymbols = 4096;
  /// Chunks each dimension worker may buffer before the producer blocks.
  static constexpr size_t ThreadQueueDepth = 4;

  /// Creates one compressor (via \p Factory) per dimension in \p Dims.
  /// With \p Threads > 1, each dimension's compressor runs on its own
  /// worker thread, fed chunks of its symbol stream through a bounded
  /// SPSC ring; the workers exclusively own their compressors until
  /// finish(), so the append path takes no locks and each compressor
  /// sees exactly the symbol order the serial path would produce.
  HorizontalDecomposer(std::vector<Dimension> Dims,
                       const CompressorFactory &Factory,
                       unsigned Threads = 1);
  ~HorizontalDecomposer();

  void consume(const OrTuple &Tuple) override;
  /// Processes the batch one dimension at a time (dimension outer, tuple
  /// inner): each compressor then sees a dense run of symbols with its
  /// own grammar state hot in cache, instead of being revisited once per
  /// tuple.
  void consumeBatch(std::span<const OrTuple> Tuples) override;
  /// Flushes pending chunks and finish()es every compressor: in threaded
  /// mode each on its own worker, after its last chunk, before the
  /// workers are joined.
  void finish() override;

  /// Returns the decomposed dimensions, in construction order.
  const std::vector<Dimension> &dimensions() const { return Dims; }

  /// True when compressors run on worker threads. While threaded and
  /// not yet finish()ed, the compressor accessors below must not be
  /// called: the workers still own the compressors.
  bool threaded() const { return !Workers.empty(); }

  /// Returns the compressor for \p D; must be one of dimensions().
  const StreamCompressor &compressorFor(Dimension D) const;
  StreamCompressor &compressorFor(Dimension D) {
    return const_cast<StreamCompressor &>(
        std::as_const(*this).compressorFor(D));
  }

  /// Returns the summed serialized size of all dimension streams.
  size_t totalSerializedSizeBytes() const;

  /// Returns per-dimension worker counters (queue traffic + busy time),
  /// parallel to dimensions(). Live workers are sampled in place; after
  /// finish() the final values captured at join time are returned.
  /// Empty in serial mode.
  std::vector<support::WorkerTelemetry> workerTelemetry() const;

private:
  /// Hands every dimension's pending chunk to its worker.
  void flushPending();

  /// Captures every worker's final counters; call just before
  /// Workers.clear() so the numbers survive the join.
  void captureWorkerStats();

  std::vector<Dimension> Dims;
  std::vector<std::unique_ptr<StreamCompressor>> Compressors;
  /// Scratch symbol buffer reused by consumeBatch().
  std::vector<uint64_t> SymbolBatch;
  /// One worker per dimension (empty in serial mode), parallel to
  /// Compressors. Workers are joined by finish() and the destructor.
  std::vector<std::unique_ptr<support::QueueWorker<std::vector<uint64_t>>>>
      Workers;
  /// Per-dimension symbol chunks being filled by the producer.
  std::vector<std::vector<uint64_t>> Pending;
  /// Worker counters captured at join time (workerTelemetry() serves
  /// these once Workers is cleared).
  std::vector<support::WorkerTelemetry> FinalWorkerStats;
};

/// Key of one vertical substream. The paper decomposes by instruction,
/// then by group; substreams are keyed accordingly.
struct VerticalKey {
  trace::InstrId Instr;
  omc::GroupId Group;
  bool operator<(const VerticalKey &O) const {
    return Instr != O.Instr ? Instr < O.Instr : Group < O.Group;
  }
  bool operator==(const VerticalKey &O) const {
    return Instr == O.Instr && Group == O.Group;
  }
};

/// Hash for VerticalKey (unordered containers). Packs both ids into one
/// word and applies a full-avalanche finalizer so nearby instruction ids
/// (the common case: a dense registry) spread across the table.
struct VerticalKeyHash {
  size_t operator()(const VerticalKey &Key) const {
    uint64_t X = (static_cast<uint64_t>(Key.Instr) << 32) | Key.Group;
    X ^= X >> 33;
    X *= 0xff51afd7ed558ccdULL;
    X ^= X >> 33;
    X *= 0xc4ceb9fe1a85ec53ULL;
    X ^= X >> 33;
    return static_cast<size_t>(X);
  }
};

/// Consumer of the tuples of one vertical substream.
class SubstreamConsumer {
public:
  virtual ~SubstreamConsumer();

  /// Receives the next tuple of this substream.
  virtual void append(const OrTuple &Tuple) = 0;
};

/// SCC front half for vertical decomposition by (instruction, group),
/// creating one SubstreamConsumer per key via a factory. LEAP attaches a
/// bounded LMAD compressor per substream; tests attach buffers.
class VerticalDecomposer : public OrTupleConsumer {
public:
  using Factory =
      std::function<std::unique_ptr<SubstreamConsumer>(VerticalKey)>;

  /// Tuples accumulated per shard before a chunk is handed to that
  /// shard's worker (threaded mode only).
  static constexpr size_t ThreadChunkTuples = 1024;
  /// Chunks each shard worker may buffer before the producer blocks.
  static constexpr size_t ThreadQueueDepth = 4;

  /// With \p Threads > 1, substreams are sharded across that many
  /// worker threads by VerticalKeyHash: one key always routes to the
  /// same worker, each worker exclusively owns the substreams of its
  /// shard (no locks on the append path), and SPSC FIFO order means
  /// every substream sees its tuples in exactly the serial order.
  /// finish() joins the workers and merges the shards into one key-
  /// sorted map, so results are independent of the thread count.
  /// \p MakeSubstream must be callable from multiple threads when
  /// Threads > 1 (the bundled factories are pure).
  explicit VerticalDecomposer(Factory MakeSubstream, unsigned Threads = 1);
  ~VerticalDecomposer();

  void consume(const OrTuple &Tuple) override;
  /// Flushes pending chunks, joins the workers and merges the shards
  /// (threaded mode; a no-op in serial mode).
  void finish() override;

  /// True when substreams are sharded across worker threads. While
  /// threaded and not yet finish()ed, the accessors below must not be
  /// called: the workers still own their shards.
  bool threaded() const { return !Workers.empty(); }

  /// Returns the number of distinct substreams seen.
  size_t numSubstreams() const { return Substreams.size(); }

  /// Iterates all substreams in key order.
  void forEach(const std::function<void(const VerticalKey &,
                                        const SubstreamConsumer &)> &Fn)
      const;

  /// Returns the substream for \p Key, or nullptr.
  const SubstreamConsumer *lookup(const VerticalKey &Key) const;

  /// Returns per-shard worker counters (queue traffic + busy time).
  /// Live workers are sampled in place; after finish() the final values
  /// captured at join time are returned. Empty in serial mode.
  std::vector<support::WorkerTelemetry> workerTelemetry() const;

private:
  /// Captures every worker's final counters; call just before
  /// Workers.clear() so the numbers survive the join.
  void captureWorkerStats();
  using SubstreamMap =
      std::map<VerticalKey, std::unique_ptr<SubstreamConsumer>>;

  Factory MakeSubstream;
  SubstreamMap Substreams;
  /// Shards[I] is owned by Workers[I]'s thread until finish() merges it
  /// into Substreams; the key sets are disjoint (hash routing), so the
  /// merged map — and therefore every key-ordered traversal — is
  /// identical for any worker count. Declared before Workers so that
  /// even during member destruction the shards outlive the worker
  /// threads that append into them (the destructor additionally joins
  /// the workers explicitly before any member is torn down).
  std::vector<SubstreamMap> Shards;
  /// Per-shard tuple chunks being filled by the producer.
  std::vector<std::vector<OrTuple>> PendingTuples;
  /// One worker per shard (empty in serial mode). Joined by finish()
  /// and the destructor.
  std::vector<std::unique_ptr<support::QueueWorker<std::vector<OrTuple>>>>
      Workers;
  /// Worker counters captured at join time (workerTelemetry() serves
  /// these once Workers is cleared).
  std::vector<support::WorkerTelemetry> FinalWorkerStats;
};

} // namespace core
} // namespace orp

#endif // ORP_CORE_DECOMPOSITION_H
