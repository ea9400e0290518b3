//===- core/ProfilingSession.h - Framework wiring facade -------*- C++ -*-===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Convenience facade assembling the paper's Figure 4 pipeline: an
/// instrumented runtime (MemoryInterface) whose probes flow into a CDC
/// backed by an OMC. Profilers register their SCC as an OrTupleConsumer;
/// additional raw sinks (baselines, counters) can attach alongside.
///
//===----------------------------------------------------------------------===//

#ifndef ORP_CORE_PROFILINGSESSION_H
#define ORP_CORE_PROFILINGSESSION_H

#include "core/Cdc.h"
#include "omc/ObjectManager.h"
#include "trace/MemoryInterface.h"

#include <memory>
#include <string>

namespace orp {
namespace core {

/// One wired-up profiling run.
class ProfilingSession {
public:
  /// Creates the runtime/OMC/CDC stack. \p Policy and \p Seed configure
  /// the simulated heap of this run; the CDC's collector goes on
  /// \p Collectors.
  explicit ProfilingSession(
      memsim::AllocPolicy Policy = memsim::AllocPolicy::FirstFit,
      uint64_t Seed = 0,
      telemetry::Registry &Collectors = telemetry::Registry::global());

  /// The instrumented runtime the workload executes against.
  trace::MemoryInterface &memory() { return Memory; }

  /// The object-management component of this run.
  omc::ObjectManager &omc() { return Omc; }

  /// The control & decomposition component of this run.
  Cdc &cdc() { return Translator; }

  /// The registry for the workload's static probe sites.
  trace::InstructionRegistry &registry() { return Registry; }

  /// Attaches an object-relative consumer (a profiler's SCC).
  void addConsumer(OrTupleConsumer *Consumer) {
    Translator.addConsumer(Consumer);
  }

  /// Attaches an extra raw-event sink next to the CDC (e.g. a
  /// raw-address baseline profiler or a CountingSink).
  void addRawSink(trace::TraceSink *Sink) { Memory.attachSink(Sink); }

  /// Replay hook for a recorded allocation: injects \p Event into
  /// memory() unless the OMC cannot register it (see
  /// omc::ObjectManager::allocError). Then nothing reaches the sinks and
  /// false is returned with \p Err naming block \p BlockIndex and the
  /// reason. Recorded traces and wire frames are untrusted input, so the
  /// check runs at every check level.
  [[nodiscard]] bool injectAlloc(const trace::AllocEvent &Event,
                                 uint64_t BlockIndex, std::string &Err);

  /// Finishes the run (static frees + finish notifications).
  void finish() { Memory.finish(); }

private:
  trace::InstructionRegistry Registry;
  omc::ObjectManager Omc;
  Cdc Translator;
  trace::MemoryInterface Memory;
};

} // namespace core
} // namespace orp

#endif // ORP_CORE_PROFILINGSESSION_H
