//===- core/Decomposition.cpp - Horizontal/vertical decomposition --------===//

#include "core/Decomposition.h"

#include "support/Error.h"

#include <cassert>

using namespace orp;
using namespace orp::core;

StreamCompressor::~StreamCompressor() = default;

void StreamCompressor::appendBatch(std::span<const uint64_t> Symbols) {
  for (uint64_t Symbol : Symbols)
    append(Symbol);
}

void StreamCompressor::finish() {}

SubstreamConsumer::~SubstreamConsumer() = default;

HorizontalDecomposer::HorizontalDecomposer(std::vector<Dimension> Dims,
                                           const CompressorFactory &Factory,
                                           unsigned Threads)
    : Dims(std::move(Dims)) {
  assert(!this->Dims.empty() && "no dimensions selected");
  Compressors.reserve(this->Dims.size());
  for (size_t I = 0; I != this->Dims.size(); ++I)
    Compressors.push_back(Factory());
  if (Threads > 1) {
    // One worker per dimension; each exclusively owns its compressor
    // until finish(). Chunks are appended via appendBatch so the
    // grammar state stays hot across the whole chunk.
    Pending.resize(this->Dims.size());
    Workers.reserve(this->Dims.size());
    for (size_t I = 0; I != this->Dims.size(); ++I) {
      Pending[I].reserve(ThreadChunkSymbols);
      StreamCompressor *Compressor = Compressors[I].get();
      Workers.push_back(
          std::make_unique<support::QueueWorker<std::vector<uint64_t>>>(
              ThreadQueueDepth, [Compressor](std::vector<uint64_t> &Chunk) {
                // An empty chunk ends the stream (see finish()).
                if (Chunk.empty())
                  Compressor->finish();
                else
                  Compressor->appendBatch(std::span<const uint64_t>(
                      Chunk.data(), Chunk.size()));
              }));
    }
  }
}

HorizontalDecomposer::~HorizontalDecomposer() {
  // Deliver what the producer buffered even when the stream is dropped
  // without finish(), then join the workers while every member their
  // handlers reference (the Compressors) is still alive — never rely on
  // member destruction order to sequence the join.
  if (!threaded())
    return;
  flushPending();
  for (auto &Worker : Workers)
    Worker->finish();
  Workers.clear();
}

void HorizontalDecomposer::flushPending() {
  for (size_t I = 0; I != Workers.size(); ++I) {
    if (Pending[I].empty())
      continue;
    std::vector<uint64_t> Chunk;
    Chunk.reserve(ThreadChunkSymbols);
    Chunk.swap(Pending[I]);
    // Workers only close in finish()/the destructor, after the last
    // flush — a refused chunk here would silently drop symbols.
    if (!Workers[I]->submit(std::move(Chunk)))
      ORP_FATAL_ERROR("decompose: dimension worker closed mid-stream");
  }
}

void HorizontalDecomposer::consume(const OrTuple &Tuple) {
  if (!threaded()) {
    for (size_t I = 0; I != Dims.size(); ++I)
      Compressors[I]->append(dimensionValue(Tuple, Dims[I]));
    return;
  }
  for (size_t I = 0; I != Dims.size(); ++I)
    Pending[I].push_back(dimensionValue(Tuple, Dims[I]));
  // All dimensions fill in lock step, so checking one suffices.
  if (Pending[0].size() >= ThreadChunkSymbols)
    flushPending();
}

void HorizontalDecomposer::consumeBatch(std::span<const OrTuple> Tuples) {
  if (!threaded()) {
    SymbolBatch.resize(Tuples.size());
    for (size_t I = 0; I != Dims.size(); ++I) {
      Dimension D = Dims[I];
      for (size_t J = 0; J != Tuples.size(); ++J)
        SymbolBatch[J] = dimensionValue(Tuples[J], D);
      Compressors[I]->appendBatch(
          std::span<const uint64_t>(SymbolBatch.data(), SymbolBatch.size()));
    }
    return;
  }
  for (size_t I = 0; I != Dims.size(); ++I) {
    Dimension D = Dims[I];
    for (const OrTuple &Tuple : Tuples)
      Pending[I].push_back(dimensionValue(Tuple, D));
  }
  if (Pending[0].size() >= ThreadChunkSymbols)
    flushPending();
}

void HorizontalDecomposer::finish() {
  if (!threaded()) {
    for (auto &Compressor : Compressors)
      Compressor->finish();
    return;
  }
  flushPending();
  // Each worker finishes its own compressor after its last chunk, so the
  // dimensions' finish() work overlaps the slower workers' tails. Chunks
  // are never empty otherwise (flushPending() skips empty ones).
  for (auto &Worker : Workers)
    if (!Worker->submit(std::vector<uint64_t>()))
      ORP_FATAL_ERROR("decompose: dimension worker closed mid-stream");
  for (auto &Worker : Workers)
    Worker->finish(); // Drains the queue and joins.
  captureWorkerStats();
  Workers.clear(); // Compressors are ours again (threaded() false).
}

void HorizontalDecomposer::captureWorkerStats() {
  FinalWorkerStats.clear();
  FinalWorkerStats.reserve(Workers.size());
  for (const auto &Worker : Workers)
    FinalWorkerStats.push_back(Worker->telemetry());
}

std::vector<support::WorkerTelemetry>
HorizontalDecomposer::workerTelemetry() const {
  if (!threaded())
    return FinalWorkerStats;
  std::vector<support::WorkerTelemetry> Stats;
  Stats.reserve(Workers.size());
  for (const auto &Worker : Workers)
    Stats.push_back(Worker->telemetry());
  return Stats;
}

const StreamCompressor &
HorizontalDecomposer::compressorFor(Dimension D) const {
  for (size_t I = 0; I != Dims.size(); ++I)
    if (Dims[I] == D)
      return *Compressors[I];
  ORP_FATAL_ERROR("dimension not decomposed by this SCC");
}

size_t HorizontalDecomposer::totalSerializedSizeBytes() const {
  size_t Total = 0;
  for (const auto &Compressor : Compressors)
    Total += Compressor->serializedSizeBytes();
  return Total;
}

VerticalDecomposer::VerticalDecomposer(Factory MakeSubstream,
                                       unsigned Threads)
    : MakeSubstream(std::move(MakeSubstream)) {
  if (Threads <= 1)
    return;
  // One worker per shard. A key always hashes to the same shard, so a
  // worker exclusively owns every substream it ever creates and each
  // substream sees its tuples in exactly the serial (FIFO) order.
  Shards.resize(Threads);
  PendingTuples.resize(Threads);
  Workers.reserve(Threads);
  for (unsigned S = 0; S != Threads; ++S) {
    PendingTuples[S].reserve(ThreadChunkTuples);
    SubstreamMap *Shard = &Shards[S];
    Factory *Make = &this->MakeSubstream;
    Workers.push_back(
        std::make_unique<support::QueueWorker<std::vector<OrTuple>>>(
            ThreadQueueDepth, [Shard, Make](std::vector<OrTuple> &Chunk) {
              for (const OrTuple &Tuple : Chunk) {
                VerticalKey Key{Tuple.Instr, Tuple.Group};
                auto It = Shard->find(Key);
                if (It == Shard->end())
                  It = Shard->emplace(Key, (*Make)(Key)).first;
                It->second->append(Tuple);
              }
            }));
  }
}

VerticalDecomposer::~VerticalDecomposer() {
  // Joining without merging is fine: the shards just get destroyed. But
  // the join must happen *here*, before member destruction starts: the
  // worker handlers append into Shards, which would otherwise be torn
  // down while worker threads still run (use-after-free).
  if (!threaded())
    return;
  for (size_t S = 0; S != Workers.size(); ++S)
    if (!PendingTuples[S].empty() &&
        !Workers[S]->submit(std::move(PendingTuples[S])))
      ORP_FATAL_ERROR("decompose: substream shard closed mid-stream");
  for (auto &Worker : Workers)
    Worker->finish();
  Workers.clear();
}

void VerticalDecomposer::consume(const OrTuple &Tuple) {
  if (threaded()) {
    size_t S = VerticalKeyHash{}(VerticalKey{Tuple.Instr, Tuple.Group}) %
               Workers.size();
    PendingTuples[S].push_back(Tuple);
    if (PendingTuples[S].size() >= ThreadChunkTuples) {
      std::vector<OrTuple> Chunk;
      Chunk.reserve(ThreadChunkTuples);
      Chunk.swap(PendingTuples[S]);
      if (!Workers[S]->submit(std::move(Chunk)))
        ORP_FATAL_ERROR("decompose: substream shard closed mid-stream");
    }
    return;
  }
  VerticalKey Key{Tuple.Instr, Tuple.Group};
  auto It = Substreams.find(Key);
  if (It == Substreams.end())
    It = Substreams.emplace(Key, MakeSubstream(Key)).first;
  It->second->append(Tuple);
}

void VerticalDecomposer::finish() {
  if (!threaded())
    return;
  for (size_t S = 0; S != Workers.size(); ++S)
    if (!PendingTuples[S].empty() &&
        !Workers[S]->submit(std::move(PendingTuples[S])))
      ORP_FATAL_ERROR("decompose: substream shard closed mid-stream");
  for (auto &Worker : Workers)
    Worker->finish(); // Drains the queue and joins.
  captureWorkerStats();
  Workers.clear();
  PendingTuples.clear();
  // Hash routing makes the shard key sets disjoint, so merging into the
  // ordered map yields the same Substreams for any worker count.
  for (SubstreamMap &Shard : Shards)
    Substreams.merge(Shard);
  Shards.clear();
}

void VerticalDecomposer::forEach(
    const std::function<void(const VerticalKey &, const SubstreamConsumer &)>
        &Fn) const {
  for (const auto &[Key, Sub] : Substreams)
    Fn(Key, *Sub);
}

const SubstreamConsumer *
VerticalDecomposer::lookup(const VerticalKey &Key) const {
  auto It = Substreams.find(Key);
  return It == Substreams.end() ? nullptr : It->second.get();
}

void VerticalDecomposer::captureWorkerStats() {
  FinalWorkerStats.clear();
  FinalWorkerStats.reserve(Workers.size());
  for (const auto &Worker : Workers)
    FinalWorkerStats.push_back(Worker->telemetry());
}

std::vector<support::WorkerTelemetry>
VerticalDecomposer::workerTelemetry() const {
  if (!threaded())
    return FinalWorkerStats;
  std::vector<support::WorkerTelemetry> Stats;
  Stats.reserve(Workers.size());
  for (const auto &Worker : Workers)
    Stats.push_back(Worker->telemetry());
  return Stats;
}
