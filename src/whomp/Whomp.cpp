//===- whomp/Whomp.cpp - Whole-stream memory profiler --------------------===//

#include "whomp/Whomp.h"

#include "check/Check.h"
#include "check/GrammarValidator.h"
#include "support/Error.h"

#include <iterator>
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

const core::Dimension kDimensions[] = {
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
    : Decomposer(
          {std::begin(kDimensions), std::end(kDimensions)},
          // Called once per dimension, in order.
          [Next = size_t(0)]() mutable {
            return std::make_unique<SequiturStreamCompressor>(
                core::dimensionName(kDimensions[Next++]));
          },
          Threads),
      NextValidateAt(ValidateIntervalTuples),
      Collector(Collectors.addCollector(
          [this](telemetry::Registry &R) {
            R.gauge("whomp.tuples").set(static_cast<int64_t>(Tuples));
            // Grammar internals may only be read while this thread owns
            // them (serial mode, or after finish() joined the workers).
            if (!Decomposer.threaded()) {
              for (core::Dimension D : Decomposer.dimensions()) {
                const sequitur::GrammarStats G = compressorFor(D).stats();
                std::string P =
                    std::string("whomp.") + core::dimensionName(D) + ".";
                R.gauge(P + "rules").set(static_cast<int64_t>(G.Rules));
                R.gauge(P + "input_symbols")
                    .set(static_cast<int64_t>(G.InputLength));
                R.gauge(P + "body_symbols")
                    .set(static_cast<int64_t>(G.BodySymbols));
                R.gauge(P + "digrams").set(static_cast<int64_t>(G.Digrams));
                R.gauge(P + "symbol_slabs")
                    .set(static_cast<int64_t>(G.SymbolSlabs));
                R.gauge(P + "rule_slabs")
                    .set(static_cast<int64_t>(G.RuleSlabs));
                R.gauge(P + "index_slots")
                    .set(static_cast<int64_t>(G.IndexSlots));
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
            std::vector<support::WorkerTelemetry> WT =
                Decomposer.workerTelemetry();
            const std::vector<core::Dimension> &Dims =
                Decomposer.dimensions();
            for (size_t I = 0; I != WT.size() && I != Dims.size(); ++I) {
              std::string P = std::string("whomp.worker.") +
                              core::dimensionName(Dims[I]) + ".";
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

void WhompProfiler::validateGrammars() const {
  for (core::Dimension D : kDimensions)
    validateGrammar(grammarFor(D), core::dimensionName(D), "periodic");
}

void WhompProfiler::consume(const core::OrTuple &Tuple) {
  Decomposer.consume(Tuple);
  ++Tuples;
  if constexpr (check::Level >= 2)
    if (Tuples >= NextValidateAt) {
      NextValidateAt = Tuples + ValidateIntervalTuples;
      // Threaded mode: the workers own the grammars until finish(), so
      // periodic validation would race; finish() still validates.
      if (!Decomposer.threaded())
        validateGrammars();
    }
}

void WhompProfiler::consumeBatch(std::span<const core::OrTuple> Batch) {
  Decomposer.consumeBatch(Batch);
  Tuples += Batch.size();
  if constexpr (check::Level >= 2)
    if (Tuples >= NextValidateAt) {
      NextValidateAt = Tuples + ValidateIntervalTuples;
      if (!Decomposer.threaded())
        validateGrammars();
    }
}

// Each compressor's finish() validates and seals its grammar.
void WhompProfiler::finish() { Decomposer.finish(); }

SequiturStreamCompressor &
WhompProfiler::mutableCompressorFor(core::Dimension D) {
  return static_cast<SequiturStreamCompressor &>(Decomposer.compressorFor(D));
}

void WhompProfiler::releaseIndexes() {
  if (Decomposer.threaded())
    return;
  for (core::Dimension D : kDimensions)
    mutableCompressorFor(D).releaseIndex();
}

void WhompProfiler::rebuildIndexes() {
  if (Decomposer.threaded())
    return;
  for (core::Dimension D : kDimensions)
    mutableCompressorFor(D).rebuildIndex();
}

bool WhompProfiler::indexesReleased() const {
  return !Decomposer.threaded() &&
         compressorFor(core::Dimension::Instruction).indexReleased();
}

size_t WhompProfiler::indexBytes() const {
  size_t Bytes = 0;
  if (!Decomposer.threaded())
    for (core::Dimension D : kDimensions)
      Bytes += compressorFor(D).indexBytes();
  return Bytes;
}

uint64_t WhompProfiler::bodySymbols() const {
  uint64_t Symbols = 0;
  if (!Decomposer.threaded())
    for (core::Dimension D : kDimensions)
      Symbols += compressorFor(D).stats().BodySymbols;
  return Symbols;
}

const SequiturStreamCompressor &
WhompProfiler::compressorFor(core::Dimension D) const {
  return static_cast<const SequiturStreamCompressor &>(
      Decomposer.compressorFor(D));
}

OmsgSizes WhompProfiler::sizes() const {
  OmsgSizes S;
  S.Instr = compressorFor(core::Dimension::Instruction).serializedSizeBytes();
  S.Group = compressorFor(core::Dimension::Group).serializedSizeBytes();
  S.Object = compressorFor(core::Dimension::Object).serializedSizeBytes();
  S.Offset = compressorFor(core::Dimension::Offset).serializedSizeBytes();
  return S;
}
