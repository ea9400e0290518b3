//===- whomp/Whomp.cpp - Whole-stream memory profiler --------------------===//

#include "whomp/Whomp.h"

#include "check/Check.h"
#include "check/GrammarValidator.h"
#include "support/Error.h"

#include <string>

using namespace orp;
using namespace orp::whomp;

namespace {

/// Level-2 checked builds deep-validate the four grammars every this
/// many tuples: frequent enough to localize a corruption to a stream
/// window, rare enough that checked runs stay usable.
constexpr uint64_t ValidateIntervalTuples = 1 << 16;

/// Level-2 checked builds only: runs GrammarValidator over \p G (a
/// builder or an image) and aborts (checkFailed) on any violation.
/// \p When labels the report ("periodic" / "finish" / "sealed").
template <typename GrammarT>
void validateGrammar(const GrammarT &G, const char *Dimension,
                     const char *When) {
  check::CheckReport Report = check::GrammarValidator::validate(G);
  if (!Report.ok()) {
    std::string Msg = std::string("WHOMP ") + When +
                      " grammar validation, dimension " + Dimension + ":\n" +
                      Report.str();
    check::checkFailed("GrammarValidator::validate(G).ok()", Msg.c_str(),
                       __FILE__, __LINE__);
  }
}

/// The four OMSG dimensions, in Compressors order.
constexpr core::Dimension kDimensions[] = {
    core::Dimension::Instruction, core::Dimension::Group,
    core::Dimension::Object, core::Dimension::Offset};

} // namespace

void SequiturStreamCompressor::finish() {
  if (!Builder)
    return;
  // The last check of the arena and of the digram index (or of the right
  // twins a released index recorded), then both go: the grammar
  // serializes once into its image, which finalize archives, and checked
  // builds audit that image too.
  if constexpr (check::Level >= 2)
    validateGrammar(*Builder, Dimension, "finish");
  Image.emplace(std::move(*Builder).seal());
  Builder.reset();
  if constexpr (check::Level >= 2)
    validateGrammar(*Image, Dimension, "sealed");
}

void SequiturStreamCompressor::releaseIndex() {
  if (Builder)
    Builder->releaseIndex();
}

void SequiturStreamCompressor::rebuildIndex() {
  if (Builder)
    Builder->rebuildIndex();
}

bool SequiturStreamCompressor::indexReleased() const {
  return Builder && Builder->indexReleased();
}

size_t SequiturStreamCompressor::indexBytes() const {
  return Builder ? Builder->indexBytes() : 0;
}

const sequitur::SequiturGrammar &SequiturStreamCompressor::grammar() const {
  if (!Builder)
    ORP_FATAL_ERROR("whomp: the grammar builder is gone once finished; "
                    "read the image");
  return *Builder;
}

const sequitur::GrammarImage &SequiturStreamCompressor::image() const {
  if (!Image)
    ORP_FATAL_ERROR("whomp: no grammar image before finish()");
  return *Image;
}

sequitur::GrammarStats SequiturStreamCompressor::stats() const {
  return Builder ? Builder->stats() : Image->stats();
}

size_t SequiturStreamCompressor::footprintBytes() const {
  return Builder ? Builder->footprintBytes() : Image->footprintBytes();
}

WhompProfiler::WhompProfiler(unsigned Threads,
                             telemetry::Registry &Collectors)
    : Compressors{SequiturStreamCompressor(
                      core::dimensionName(core::Dimension::Instruction)),
                  SequiturStreamCompressor(
                      core::dimensionName(core::Dimension::Group)),
                  SequiturStreamCompressor(
                      core::dimensionName(core::Dimension::Object)),
                  SequiturStreamCompressor(
                      core::dimensionName(core::Dimension::Offset))},
      NextValidateAt(ValidateIntervalTuples) {
  if (Threads > 1) {
    // One worker per dimension; each exclusively owns its compressor
    // until finish(). Chunks are appended via appendBatch so the grammar
    // state stays hot across the whole chunk.
    Workers.reserve(Compressors.size());
    for (size_t I = 0; I != Compressors.size(); ++I) {
      Pending[I].reserve(ThreadChunkSymbols);
      SequiturStreamCompressor *Compressor = &Compressors[I];
      Workers.push_back(std::make_unique<Worker>(
          ThreadQueueDepth, [Compressor](std::vector<uint64_t> &Chunk) {
            // An empty chunk ends the stream (see finish()).
            if (Chunk.empty())
              Compressor->finish();
            else
              Compressor->appendBatch(Chunk);
          }));
    }
  }
  // Registered last: a snapshot may run the collector at once.
  Collector = Collectors.addCollector([this](telemetry::Registry &R) {
    R.gauge("whomp.tuples").set(static_cast<int64_t>(Tuples));
    // Grammar internals may only be read while this thread owns them
    // (serial mode, or after finish() joined the workers).
    if (!threaded()) {
      for (core::Dimension D : kDimensions) {
        const sequitur::GrammarStats G = compressorFor(D).stats();
        std::string P = std::string("whomp.") + core::dimensionName(D) + ".";
        R.gauge(P + "rules").set(static_cast<int64_t>(G.Rules));
        R.gauge(P + "input_symbols")
            .set(static_cast<int64_t>(G.InputLength));
        R.gauge(P + "body_symbols").set(static_cast<int64_t>(G.BodySymbols));
        R.gauge(P + "digrams").set(static_cast<int64_t>(G.Digrams));
        R.gauge(P + "symbol_slabs").set(static_cast<int64_t>(G.SymbolSlabs));
        R.gauge(P + "rule_slabs").set(static_cast<int64_t>(G.RuleSlabs));
        R.gauge(P + "index_slots").set(static_cast<int64_t>(G.IndexSlots));
        const sequitur::Churn &C = G.Work;
        R.gauge(P + "rules_created")
            .set(static_cast<int64_t>(C.RulesCreated));
        R.gauge(P + "rules_inlined")
            .set(static_cast<int64_t>(C.RulesInlined));
        R.gauge(P + "digram_checks")
            .set(static_cast<int64_t>(C.DigramChecks));
        R.gauge(P + "matches").set(static_cast<int64_t>(C.Matches));
      }
    }
    for (size_t I = 0; I != Workers.size(); ++I) {
      support::WorkerTelemetry WT = Workers[I]->telemetry();
      std::string P = std::string("whomp.worker.") +
                      core::dimensionName(kDimensions[I]) + ".";
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

WhompProfiler::~WhompProfiler() {
  // Deliver what the producer buffered even when the stream is dropped
  // without finish(), then join the workers while the Compressors their
  // handlers append into are still alive.
  if (!threaded())
    return;
  flushPending();
  for (auto &W : Workers)
    W->finish();
}

void WhompProfiler::flushPending() {
  for (size_t I = 0; I != Workers.size(); ++I) {
    if (Pending[I].empty())
      continue;
    std::vector<uint64_t> Chunk;
    Chunk.reserve(ThreadChunkSymbols);
    Chunk.swap(Pending[I]);
    // Workers only close in finish()/the destructor, after the last
    // flush — a refused chunk here would silently drop symbols.
    if (!Workers[I]->submit(std::move(Chunk)))
      ORP_FATAL_ERROR("whomp: dimension worker closed mid-stream");
  }
}

void WhompProfiler::validateGrammars() const {
  for (core::Dimension D : kDimensions)
    validateGrammar(grammarFor(D), core::dimensionName(D), "periodic");
}

void WhompProfiler::consume(const core::OrTuple &Tuple) {
  consumeBatch(std::span<const core::OrTuple>(&Tuple, 1));
}

void WhompProfiler::consumeBatch(std::span<const core::OrTuple> Batch) {
  if (threaded()) {
    for (size_t I = 0; I != Pending.size(); ++I)
      for (const core::OrTuple &Tuple : Batch)
        Pending[I].push_back(core::dimensionValue(Tuple, kDimensions[I]));
    // All dimensions fill in lock step, so checking one suffices.
    if (Pending[0].size() >= ThreadChunkSymbols)
      flushPending();
  } else {
    SymbolBatch.resize(Batch.size());
    for (size_t I = 0; I != Compressors.size(); ++I) {
      for (size_t J = 0; J != Batch.size(); ++J)
        SymbolBatch[J] = core::dimensionValue(Batch[J], kDimensions[I]);
      Compressors[I].appendBatch(SymbolBatch);
    }
  }
  Tuples += Batch.size();
  if constexpr (check::Level >= 2)
    if (Tuples >= NextValidateAt) {
      NextValidateAt = Tuples + ValidateIntervalTuples;
      // Threaded mode: the workers own the grammars until finish(), so
      // periodic validation would race; finish() still validates.
      if (!threaded())
        validateGrammars();
    }
}

void WhompProfiler::finish() {
  // Each compressor's finish() validates and seals its grammar.
  if (!threaded()) {
    for (SequiturStreamCompressor &Compressor : Compressors)
      Compressor.finish();
    return;
  }
  flushPending();
  // Each worker finishes its own compressor after its last chunk, so the
  // dimensions' finish() work overlaps the slower workers' tails. Chunks
  // are never empty otherwise (flushPending() skips empty ones).
  for (auto &W : Workers)
    if (!W->submit(std::vector<uint64_t>()))
      ORP_FATAL_ERROR("whomp: dimension worker closed mid-stream");
  for (auto &W : Workers)
    W->finish(); // Drains the queue and joins.
  Joined = true; // The compressors are ours again.
}

void WhompProfiler::releaseIndexes() {
  if (threaded())
    return;
  for (SequiturStreamCompressor &Compressor : Compressors)
    Compressor.releaseIndex();
}

void WhompProfiler::rebuildIndexes() {
  if (threaded())
    return;
  for (SequiturStreamCompressor &Compressor : Compressors)
    Compressor.rebuildIndex();
}

bool WhompProfiler::indexesReleased() const {
  return !threaded() && Compressors[0].indexReleased();
}

size_t WhompProfiler::indexBytes() const {
  size_t Bytes = 0;
  if (!threaded())
    for (const SequiturStreamCompressor &Compressor : Compressors)
      Bytes += Compressor.indexBytes();
  return Bytes;
}

uint64_t WhompProfiler::bodySymbols() const {
  uint64_t Symbols = 0;
  if (!threaded())
    for (const SequiturStreamCompressor &Compressor : Compressors)
      Symbols += Compressor.stats().BodySymbols;
  return Symbols;
}

const SequiturStreamCompressor &
WhompProfiler::compressorFor(core::Dimension D) const {
  size_t I = static_cast<size_t>(D);
  if (I >= Compressors.size())
    ORP_FATAL_ERROR("whomp: dimension not in the OMSG");
  return Compressors[I];
}

OmsgSizes WhompProfiler::sizes() const {
  OmsgSizes S;
  S.Instr = compressorFor(core::Dimension::Instruction).serializedSizeBytes();
  S.Group = compressorFor(core::Dimension::Group).serializedSizeBytes();
  S.Object = compressorFor(core::Dimension::Object).serializedSizeBytes();
  S.Offset = compressorFor(core::Dimension::Offset).serializedSizeBytes();
  return S;
}
