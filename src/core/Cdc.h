//===- core/Cdc.h - Control and decomposition component --------*- C++ -*-===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's CDC (Figure 4): "acts as a hub to the profiling process.
/// It receives information from the instruction probes, and queries the
/// OMC to make the information object-relative. It then passes on the
/// object-relative stream to the separation and compression component."
///
//===----------------------------------------------------------------------===//

#ifndef ORP_CORE_CDC_H
#define ORP_CORE_CDC_H

#include "core/ObjectRelative.h"
#include "omc/ObjectManager.h"
#include "telemetry/Registry.h"
#include "trace/Events.h"

#include <vector>

namespace orp {
namespace core {

/// CDC counters.
struct CdcStats {
  uint64_t Translated = 0; ///< Accesses forwarded object-relatively.
  uint64_t Unknown = 0;    ///< Accesses to unmapped addresses.
};

/// Control & decomposition component: a TraceSink that translates raw
/// accesses through an ObjectManager and feeds OrTuple consumers. An
/// access to an address no live object covers (stack and foreign
/// addresses; the paper "chose not to profile" stack variables) is
/// counted in CdcStats::Unknown and dropped.
class Cdc : public trace::TraceSink {
public:
  /// The cdc.* and omc.* gauges are published by a collector on
  /// \p Collectors.
  explicit Cdc(omc::ObjectManager &Omc,
               telemetry::Registry &Collectors = telemetry::Registry::global());

  /// Adds \p Consumer (not owned) to the object-relative output.
  void addConsumer(OrTupleConsumer *Consumer);

  void onAccess(const trace::AccessEvent &Event) override;
  /// Translates the whole batch through the OMC before fanning out: the
  /// per-instruction MRU cache stays hot across the run, and consumers
  /// receive one consumeBatch() call instead of N virtual consume()s.
  void onAccessBatch(std::span<const trace::AccessEvent> Events) override;
  void onAlloc(const trace::AllocEvent &Event) override;
  void onFree(const trace::FreeEvent &Event) override;
  void onFinish() override;

  /// Returns translation counters.
  const CdcStats &stats() const { return Stats; }

  /// Returns the object manager this CDC translates through.
  omc::ObjectManager &omc() { return Omc; }

private:
  /// Translates \p Event into \p Tuple. Returns false when the address
  /// is unknown (the access is dropped).
  bool translateEvent(const trace::AccessEvent &Event, OrTuple &Tuple);

  /// Level-2 checked builds only: runs OmcValidator over the object
  /// manager and aborts (checkFailed) on any violation. \p When labels
  /// the report ("periodic" / "finish").
  void validateOmc(const char *When) const;

  omc::ObjectManager &Omc;
  std::vector<OrTupleConsumer *> Consumers;
  CdcStats Stats;
  /// Batch-granularity counter (one bump per onAccessBatch — cold
  /// relative to the per-access path). Cached registry reference.
  telemetry::Counter &BatchCounter;
  /// Publishes Stats and the OMC's counters into cdc.* / omc.* gauges
  /// at snapshot time; keeps the per-access path at a plain increment.
  telemetry::CollectorHandle Collector;
  /// Scratch buffer reused by onAccessBatch().
  std::vector<OrTuple> TupleBatch;
  /// Alloc/free events seen; drives the periodic level-2 validation.
  uint64_t OmcMutations = 0;
  /// Mutation count at which the next periodic validation fires.
  uint64_t NextOmcValidateAt;
};

} // namespace core
} // namespace orp

#endif // ORP_CORE_CDC_H
