//===- trace/MemoryInterface.h - Instrumented program runtime --*- C++ -*-===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime surface that the workload analogues are "compiled" against.
/// Every load/store a workload performs on its simulated data goes through
/// load()/store(), which is exactly the paper's inserted instruction probe;
/// heapAlloc()/heapFree()/staticAlloc() are the object probes. Attached
/// TraceSinks receive the event stream; with no sinks attached the run is
/// the "native" run used as the dilation baseline (Table 1).
///
//===----------------------------------------------------------------------===//

#ifndef ORP_TRACE_MEMORYINTERFACE_H
#define ORP_TRACE_MEMORYINTERFACE_H

#include "memsim/Allocator.h"
#include "trace/Events.h"
#include "trace/InstructionRegistry.h"

#include <array>
#include <cassert>
#include <memory>
#include <string>
#include <vector>

namespace orp {
namespace trace {

/// Runtime for one instrumented (simulated) program execution.
///
/// Accesses are not delivered to the sinks one at a time: the probes
/// buffer into a fixed-size batch which is flushed when full and at
/// every event that could change the address map (alloc/free/finish).
/// Sinks therefore see accesses slightly later than they execute —
/// always in order, always carrying their true timestamps — and a sink
/// inspected mid-run must be preceded by flushAccesses().
class MemoryInterface {
public:
  /// Accesses per batch: the batch buffer is inline and flushes when it
  /// holds this many.
  static constexpr size_t kBatchCapacity = 128;

  /// Creates a runtime with a heap served by \p Policy. \p Seed models the
  /// environment-dependent layout noise of one particular run.
  explicit MemoryInterface(
      memsim::AllocPolicy Policy = memsim::AllocPolicy::FirstFit,
      uint64_t Seed = 0);

  ~MemoryInterface();

  /// Attaches \p Sink (not owned) to the probe event stream.
  void attachSink(TraceSink *Sink);

  /// Instruction probe: records a load by instruction \p Instr.
  void load(InstrId Instr, uint64_t Addr, uint32_t Size = 8) {
    record(Instr, Addr, Size, /*IsStore=*/false);
  }

  /// Instruction probe: records a store by instruction \p Instr.
  void store(InstrId Instr, uint64_t Addr, uint32_t Size = 8) {
    record(Instr, Addr, Size, /*IsStore=*/true);
  }

  /// Delivers all buffered accesses to the sinks now. Object probes and
  /// finish() flush implicitly; call this before inspecting sink state
  /// mid-run.
  void flushAccesses();

  /// Object probe: allocates \p Size heap bytes at allocation site
  /// \p Site. Returns the object's address (0 on simulated OOM).
  uint64_t heapAlloc(AllocSiteId Site, uint64_t Size, uint64_t Align = 16);

  /// Object probe: frees the heap object at \p Addr.
  ///
  /// Freeing an address that is not a live heap payload — a stray
  /// pointer, a static, or a second free of the same object — is a
  /// diagnosed, counted no-op: the allocator is left untouched, no
  /// event reaches the sinks, and unknownFrees() is incremented. Real
  /// instrumented programs contain such frees, so the runtime must
  /// survive them; the counter keeps them visible. If accesses are
  /// batched when a (valid) free arrives, the batch is flushed first,
  /// so sinks always observe accesses before the free that follows
  /// them.
  void heapFree(uint64_t Addr);

  /// Returns the number of heapFree() calls ignored because their
  /// address was not a live heap payload (including double frees).
  uint64_t unknownFrees() const { return UnknownFrees; }

  /// Object probe for statics: places a global of \p Size bytes in the
  /// static segment and reports it allocated at program start. The paper
  /// inserts these probes "at the beginning ... of the program for all
  /// statically allocated objects".
  uint64_t staticAlloc(AllocSiteId Site, uint64_t Size, uint64_t Align = 8);

  /// Declares the run finished: emits frees for statics (the paper's
  /// program-end object probes) and forwards onFinish() to the sinks.
  void finish();

  /// \name Replay hooks
  /// Deliver a pre-recorded event verbatim to every attached sink,
  /// bypassing the simulated allocator and the live clock. Used by
  /// session::ProfileSession to re-drive a pipeline from recorded blocks;
  /// the event's recorded timestamp is forwarded unchanged and the
  /// clock is advanced so now() stays consistent with the recording.
  /// @{
  /// injectFree forwards the recorded free verbatim even when its
  /// address is unknown to the (untouched) simulated heap: the trace is
  /// the authority on what happened, and the OMC already diagnoses
  /// unknown frees downstream (OmcStats::UnknownFrees). Contrast with
  /// heapFree(), which filters unknown frees at the probe.
  void injectAccess(const AccessEvent &Event);
  void injectAlloc(const AllocEvent &Event);
  void injectFree(const FreeEvent &Event);

  /// Delivers a whole run of pre-recorded accesses as one span: any
  /// buffered singles are flushed first (order is preserved), then the
  /// span goes to every sink's onAccessBatch directly — no per-event
  /// copy through the batch buffer, no capacity limit. The columnar
  /// (v2) replay path hands each decoded between-boundaries slice here;
  /// profiles are byte-identical to per-event injection because sinks
  /// only depend on event order, never on batch boundaries (pinned by
  /// the cross-version replay tests in tests/traceio_test.cpp).
  void injectAccessBatch(std::span<const AccessEvent> Events);
  /// @}

  /// Returns the current value of the global access counter.
  uint64_t now() const { return Clock; }

  /// Returns the number of accesses recorded so far.
  uint64_t accessCount() const { return Clock; }

  /// Returns the heap allocator (e.g. for statistics).
  const memsim::SimAllocator &allocator() const { return *Heap; }

private:
  /// The instruction-probe fast path: stamps the event into the batch
  /// buffer and only crosses into virtual sink dispatch when the batch
  /// fills. Inline — this is the per-access cost behind Table 1.
  void record(InstrId Instr, uint64_t Addr, uint32_t Size, bool IsStore) {
    assert(!Finished && "access after finish()");
    if (!Sinks.empty()) {
      Batch[BatchLen++] = AccessEvent{Instr, Addr, Size, IsStore, Clock};
      if (BatchLen >= kBatchCapacity)
        flushAccesses();
    }
    ++Clock;
  }

  std::unique_ptr<memsim::SimAllocator> Heap;
  std::vector<TraceSink *> Sinks;
  /// Access batch buffer (see class comment).
  std::array<AccessEvent, kBatchCapacity> Batch;
  size_t BatchLen = 0;
  /// Global access counter; "a counter starting from 0 at the beginning of
  /// the program and incremented after every collected access" (Sec. 2.2).
  uint64_t Clock = 0;
  /// Bump cursor for the static segment.
  uint64_t StaticCursor;
  /// Live static objects, freed at finish().
  std::vector<uint64_t> StaticObjects;
  /// heapFree() calls ignored because the address was not live.
  uint64_t UnknownFrees = 0;
  bool Finished = false;
};

} // namespace trace
} // namespace orp

#endif // ORP_TRACE_MEMORYINTERFACE_H
