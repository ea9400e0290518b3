//===- whomp/Whomp.cpp - Whole-stream memory profiler --------------------===//

#include "whomp/Whomp.h"

#include "check/Check.h"
#include "check/GrammarValidator.h"

#include <string>

using namespace orp;
using namespace orp::whomp;

namespace {

/// Level-2 checked builds deep-validate the four grammars every this
/// many tuples: frequent enough to localize a corruption to a stream
/// window, rare enough that checked runs stay usable.
constexpr uint64_t ValidateIntervalTuples = 1 << 16;

} // namespace

WhompProfiler::WhompProfiler(unsigned Threads,
                             telemetry::Registry &Collectors)
    : Decomposer(
          {core::Dimension::Instruction, core::Dimension::Group,
           core::Dimension::Object, core::Dimension::Offset},
          [] { return std::make_unique<SequiturStreamCompressor>(); },
          Threads),
      NextValidateAt(ValidateIntervalTuples),
      Collector(Collectors.addCollector(
          [this](telemetry::Registry &R) {
            R.gauge("whomp.tuples").set(static_cast<int64_t>(Tuples));
            // Grammar internals may only be read while this thread owns
            // them (serial mode, or after finish() joined the workers).
            if (!Decomposer.threaded()) {
              for (core::Dimension D : Decomposer.dimensions()) {
                const sequitur::SequiturGrammar &G = grammarFor(D);
                std::string P =
                    std::string("whomp.") + core::dimensionName(D) + ".";
                R.gauge(P + "rules").set(static_cast<int64_t>(G.numRules()));
                R.gauge(P + "input_symbols")
                    .set(static_cast<int64_t>(G.inputLength()));
                R.gauge(P + "body_symbols")
                    .set(static_cast<int64_t>(G.totalBodySymbols()));
                R.gauge(P + "digrams")
                    .set(static_cast<int64_t>(G.numDigrams()));
                R.gauge(P + "symbol_slabs")
                    .set(static_cast<int64_t>(G.numSymbolSlabs()));
                R.gauge(P + "rule_slabs")
                    .set(static_cast<int64_t>(G.numRuleSlabs()));
                R.gauge(P + "index_slots")
                    .set(static_cast<int64_t>(G.indexSlots()));
                const sequitur::SequiturGrammar::Churn &C = G.churn();
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

void WhompProfiler::validateGrammars(const char *When) const {
  for (core::Dimension D :
       {core::Dimension::Instruction, core::Dimension::Group,
        core::Dimension::Object, core::Dimension::Offset}) {
    check::CheckReport Report =
        check::GrammarValidator::validate(grammarFor(D));
    if (!Report.ok()) {
      std::string Msg = std::string("WHOMP ") + When +
                        " grammar validation, dimension " +
                        core::dimensionName(D) + ":\n" + Report.str();
      check::checkFailed("GrammarValidator::validate(grammarFor(D)).ok()",
                         Msg.c_str(), __FILE__, __LINE__);
    }
  }
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
        validateGrammars("periodic");
    }
}

void WhompProfiler::consumeBatch(std::span<const core::OrTuple> Batch) {
  Decomposer.consumeBatch(Batch);
  Tuples += Batch.size();
  if constexpr (check::Level >= 2)
    if (Tuples >= NextValidateAt) {
      NextValidateAt = Tuples + ValidateIntervalTuples;
      if (!Decomposer.threaded())
        validateGrammars("periodic");
    }
}

void WhompProfiler::finish() {
  Decomposer.finish();
  // The last check of each arena and digram index, then both go: each
  // grammar serializes once into its image, which finalize archives.
  if constexpr (check::Level >= 2)
    validateGrammars("finish");
  for (core::Dimension D : Decomposer.dimensions())
    static_cast<SequiturStreamCompressor &>(Decomposer.compressorFor(D))
        .seal();
}

const sequitur::SequiturGrammar &
WhompProfiler::grammarFor(core::Dimension D) const {
  return static_cast<const SequiturStreamCompressor &>(
             Decomposer.compressorFor(D))
      .grammar();
}

OmsgSizes WhompProfiler::sizes() const {
  OmsgSizes S;
  S.Instr = grammarFor(core::Dimension::Instruction).serializedSizeBytes();
  S.Group = grammarFor(core::Dimension::Group).serializedSizeBytes();
  S.Object = grammarFor(core::Dimension::Object).serializedSizeBytes();
  S.Offset = grammarFor(core::Dimension::Offset).serializedSizeBytes();
  return S;
}
