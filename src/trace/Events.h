//===- trace/Events.h - Probe event stream and sinks -----------*- C++ -*-===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The probe event vocabulary (Figure 4 of the paper): instruction probes
/// produce AccessEvents, object probes produce Alloc/FreeEvents. A
/// TraceSink is anything that consumes the event stream — the CDC of a
/// profiler, a raw-address baseline, or a test buffer.
///
//===----------------------------------------------------------------------===//

#ifndef ORP_TRACE_EVENTS_H
#define ORP_TRACE_EVENTS_H

#include "trace/InstructionRegistry.h"

#include <cstdint>
#include <span>
#include <vector>

namespace orp {
namespace trace {

/// One executed load or store, as delivered by an instruction probe.
struct AccessEvent {
  InstrId Instr;   ///< Static instruction that executed.
  uint64_t Addr;   ///< Raw (simulated) address accessed.
  uint32_t Size;   ///< Access width in bytes.
  bool IsStore;    ///< True for stores, false for loads.
  uint64_t Time;   ///< Global access counter at this event.
};

/// One object creation, as delivered by an object probe.
struct AllocEvent {
  AllocSiteId Site; ///< Static allocation site (group key).
  uint64_t Addr;    ///< Start address of the object.
  uint64_t Size;    ///< Object size in bytes.
  uint64_t Time;    ///< Access-counter time of the allocation.
  bool IsStatic;    ///< True for statically allocated objects.
};

/// One object destruction.
struct FreeEvent {
  uint64_t Addr; ///< Start address of the object being destroyed.
  uint64_t Time; ///< Access-counter time of the deallocation.
};

/// Consumer of the probe event stream.
class TraceSink {
public:
  virtual ~TraceSink();

  /// Called for every executed load/store.
  virtual void onAccess(const AccessEvent &Event) = 0;

  /// Called with a run of consecutive accesses. The probe runtime
  /// (MemoryInterface) buffers accesses and delivers them through this
  /// entry point, amortizing one virtual dispatch over the whole batch;
  /// events arrive in execution order and carry their own timestamps.
  /// Default: forwards each event to onAccess(), so sinks that don't
  /// care about batching behave exactly as before.
  virtual void onAccessBatch(std::span<const AccessEvent> Events);

  /// Called when an object is created (heap alloc, or statics at startup).
  virtual void onAlloc(const AllocEvent &Event) = 0;

  /// Called when an object is destroyed.
  virtual void onFree(const FreeEvent &Event) = 0;

  /// Called once when the instrumented run finishes. Default: no-op.
  virtual void onFinish();
};

/// Sink that counts events; used for trace-volume metrics (Table 1's
/// compression baseline) and as a cheap "native-like" attachment.
class CountingSink : public TraceSink {
public:
  void onAccess(const AccessEvent &Event) override;
  void onAccessBatch(std::span<const AccessEvent> Events) override;
  void onAlloc(const AllocEvent &Event) override;
  void onFree(const FreeEvent &Event) override;

  uint64_t accesses() const { return Accesses; }
  uint64_t loads() const { return Loads; }
  uint64_t stores() const { return Stores; }
  uint64_t allocs() const { return Allocs; }
  uint64_t frees() const { return Frees; }

  /// Bytes an uncompressed trace of the observed accesses would occupy,
  /// at the canonical 12 bytes per record (4-byte instruction id plus
  /// 8-byte address), matching the "original data trace" of Table 1.
  uint64_t rawTraceBytes() const { return Accesses * 12; }

private:
  uint64_t Accesses = 0;
  uint64_t Loads = 0;
  uint64_t Stores = 0;
  uint64_t Allocs = 0;
  uint64_t Frees = 0;
};

/// Sink that buffers the full event stream in memory, one log per event
/// kind; for tests and demos that inspect what a run delivered. A
/// stream to replay is recorded as an .orpt (traceio::TraceWriter).
class BufferSink : public TraceSink {
public:
  void onAccess(const AccessEvent &Event) override;
  void onAccessBatch(std::span<const AccessEvent> Events) override;
  void onAlloc(const AllocEvent &Event) override;
  void onFree(const FreeEvent &Event) override;

  const std::vector<AccessEvent> &accesses() const { return AccessLog; }
  const std::vector<AllocEvent> &allocs() const { return AllocLog; }
  const std::vector<FreeEvent> &frees() const { return FreeLog; }

private:
  std::vector<AccessEvent> AccessLog;
  std::vector<AllocEvent> AllocLog;
  std::vector<FreeEvent> FreeLog;
};

} // namespace trace
} // namespace orp

#endif // ORP_TRACE_EVENTS_H
