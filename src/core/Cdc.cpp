//===- core/Cdc.cpp - Control and decomposition component ----------------===//

#include "core/Cdc.h"

#include "check/Check.h"
#include "check/OmcValidator.h"

#include <cassert>
#include <string>

using namespace orp;
using namespace orp::core;

OrTupleConsumer::~OrTupleConsumer() = default;

void OrTupleConsumer::consumeBatch(std::span<const OrTuple> Tuples) {
  for (const OrTuple &Tuple : Tuples)
    consume(Tuple);
}

void OrTupleConsumer::finish() {}

const char *orp::core::dimensionName(Dimension D) {
  switch (D) {
  case Dimension::Instruction:
    return "instr";
  case Dimension::Group:
    return "group";
  case Dimension::Object:
    return "object";
  case Dimension::Offset:
    return "offset";
  case Dimension::Time:
    return "time";
  }
  return "?";
}

namespace {

/// Level-2 checked builds deep-validate the OMC every this many
/// alloc/free events (the operations that mutate the live index and
/// serial counters; cache lines are cross-checked on the same cadence).
constexpr uint64_t OmcValidateIntervalMutations = 1024;

} // namespace

Cdc::Cdc(omc::ObjectManager &Omc, telemetry::Registry &Collectors)
    : Omc(Omc),
      BatchCounter(telemetry::Registry::global().counter("cdc.batches")),
      Collector(Collectors.addCollector(
          [this](telemetry::Registry &R) {
            R.gauge("cdc.translated")
                .set(static_cast<int64_t>(Stats.Translated));
            R.gauge("cdc.unknown").set(static_cast<int64_t>(Stats.Unknown));
            const omc::OmcStats &S = this->Omc.stats();
            R.gauge("omc.translations")
                .set(static_cast<int64_t>(S.Translations));
            R.gauge("omc.misses").set(static_cast<int64_t>(S.Misses));
            R.gauge("omc.mru_hits").set(static_cast<int64_t>(S.MruHits));
            R.gauge("omc.shared_cache_hits")
                .set(static_cast<int64_t>(S.SharedCacheHits));
            R.gauge("omc.unknown_frees")
                .set(static_cast<int64_t>(S.UnknownFrees));
            R.gauge("omc.groups")
                .set(static_cast<int64_t>(this->Omc.numGroups()));
            R.gauge("omc.live_objects")
                .set(static_cast<int64_t>(this->Omc.numLiveObjects()));
          })),
      NextOmcValidateAt(OmcValidateIntervalMutations) {}

void Cdc::validateOmc(const char *When) const {
  check::CheckReport Report = check::OmcValidator::validate(Omc);
  if (!Report.ok()) {
    std::string Msg =
        std::string("CDC ") + When + " OMC validation:\n" + Report.str();
    check::checkFailed("OmcValidator::validate(Omc).ok()", Msg.c_str(),
                       __FILE__, __LINE__);
  }
}

void Cdc::addConsumer(OrTupleConsumer *Consumer) {
  assert(Consumer && "null consumer");
  Consumers.push_back(Consumer);
}

bool Cdc::translateEvent(const trace::AccessEvent &Event, OrTuple &Tuple) {
  Tuple.Instr = Event.Instr;
  Tuple.Time = Event.Time;
  Tuple.IsStore = Event.IsStore;
  Tuple.Size = Event.Size;

  if (auto Tr = Omc.translate(Event.Addr, Event.Instr)) {
    Tuple.Group = Tr->Group;
    Tuple.Object = Tr->Object;
    Tuple.Offset = Tr->Offset;
    ++Stats.Translated;
    return true;
  }
  ++Stats.Unknown;
  return false;
}

void Cdc::onAccess(const trace::AccessEvent &Event) {
  OrTuple Tuple;
  if (!translateEvent(Event, Tuple))
    return;
  for (OrTupleConsumer *Consumer : Consumers)
    Consumer->consume(Tuple);
}

void Cdc::onAccessBatch(std::span<const trace::AccessEvent> Events) {
  BatchCounter.add();
  TupleBatch.clear();
  TupleBatch.reserve(Events.size());
  for (const trace::AccessEvent &Event : Events) {
    OrTuple Tuple;
    if (translateEvent(Event, Tuple))
      TupleBatch.push_back(Tuple);
  }
  if (TupleBatch.empty())
    return;
  std::span<const OrTuple> Tuples(TupleBatch.data(), TupleBatch.size());
  for (OrTupleConsumer *Consumer : Consumers)
    Consumer->consumeBatch(Tuples);
}

void Cdc::onAlloc(const trace::AllocEvent &Event) {
  Omc.onAlloc(Event);
  if constexpr (check::Level >= 2)
    if (++OmcMutations >= NextOmcValidateAt) {
      NextOmcValidateAt = OmcMutations + OmcValidateIntervalMutations;
      validateOmc("periodic");
    }
}

void Cdc::onFree(const trace::FreeEvent &Event) {
  Omc.onFree(Event);
  if constexpr (check::Level >= 2)
    if (++OmcMutations >= NextOmcValidateAt) {
      NextOmcValidateAt = OmcMutations + OmcValidateIntervalMutations;
      validateOmc("periodic");
    }
}

void Cdc::onFinish() {
  for (OrTupleConsumer *Consumer : Consumers)
    Consumer->finish();
  if constexpr (check::Level >= 2)
    validateOmc("finish");
}
