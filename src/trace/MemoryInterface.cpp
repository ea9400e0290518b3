//===- trace/MemoryInterface.cpp - Instrumented program runtime ----------===//

#include "trace/MemoryInterface.h"

#include "memsim/AddressSpace.h"
#include "support/Error.h"

#include <cassert>

using namespace orp;
using namespace orp::trace;

MemoryInterface::MemoryInterface(memsim::AllocPolicy Policy, uint64_t Seed)
    : Heap(memsim::createAllocator(Policy, Seed)) {
  // Probe insertion grows the text segment and shifts static data; model
  // the shift with a seed-derived offset (paper, Section 1, artifact #3).
  uint64_t Shift = (Seed * 0x94d049bb133111ebULL >> 48) & 0x7f8;
  StaticCursor = memsim::AddressSpaceLayout::StaticBase + Shift;
}

MemoryInterface::~MemoryInterface() = default;

void MemoryInterface::attachSink(TraceSink *Sink) {
  assert(Sink && "null sink");
  // A sink attached mid-run must not receive accesses that executed
  // before it was attached.
  flushAccesses();
  Sinks.push_back(Sink);
}

void MemoryInterface::flushAccesses() {
  if (BatchLen == 0)
    return;
  std::span<const AccessEvent> Events(Batch.data(), BatchLen);
  for (TraceSink *Sink : Sinks)
    Sink->onAccessBatch(Events);
  BatchLen = 0;
}

uint64_t MemoryInterface::heapAlloc(AllocSiteId Site, uint64_t Size,
                                    uint64_t Align) {
  assert(!Finished && "allocation after finish()");
  uint64_t Addr = Heap->allocate(Size, Align);
  if (Addr == 0)
    return 0;
  if (!Sinks.empty()) {
    flushAccesses(); // Keep access/alloc order at the sinks.
    AllocEvent Event{Site, Addr, Size, Clock, /*IsStatic=*/false};
    for (TraceSink *Sink : Sinks)
      Sink->onAlloc(Event);
  }
  return Addr;
}

void MemoryInterface::heapFree(uint64_t Addr) {
  assert(!Finished && "free after finish()");
  // Unknown address (stray pointer, double free, static): diagnose and
  // ignore — see the header contract. The allocator itself treats an
  // unknown deallocate as fatal, so the liveness probe must come first.
  if (Heap->liveBlockSize(Addr) == 0) {
    ++UnknownFrees;
    return;
  }
  Heap->deallocate(Addr);
  if (!Sinks.empty()) {
    flushAccesses(); // Keep access/free order at the sinks.
    FreeEvent Event{Addr, Clock};
    for (TraceSink *Sink : Sinks)
      Sink->onFree(Event);
  }
}

uint64_t MemoryInterface::staticAlloc(AllocSiteId Site, uint64_t Size,
                                      uint64_t Align) {
  assert(!Finished && "static allocation after finish()");
  assert(Size > 0 && "zero-sized static object");
  assert(Align != 0 && (Align & (Align - 1)) == 0 && "bad alignment");
  StaticCursor = (StaticCursor + Align - 1) & ~(Align - 1);
  uint64_t Addr = StaticCursor;
  StaticCursor += Size;
  if (StaticCursor >= memsim::AddressSpaceLayout::StaticLimit)
    ORP_FATAL_ERROR("static segment overflow");
  StaticObjects.push_back(Addr);
  if (!Sinks.empty()) {
    flushAccesses();
    AllocEvent Event{Site, Addr, Size, Clock, /*IsStatic=*/true};
    for (TraceSink *Sink : Sinks)
      Sink->onAlloc(Event);
  }
  return Addr;
}

void MemoryInterface::injectAccess(const AccessEvent &Event) {
  assert(!Finished && "access after finish()");
  // Replayed accesses ride the same batch buffer as live ones; the
  // recorded timestamp travels inside the event.
  if (!Sinks.empty()) {
    Batch[BatchLen++] = Event;
    if (BatchLen >= kBatchCapacity)
      flushAccesses();
  }
  // Live record() stamps the current clock and then advances it.
  if (Event.Time + 1 > Clock)
    Clock = Event.Time + 1;
}

void MemoryInterface::injectAccessBatch(std::span<const AccessEvent> Events) {
  assert(!Finished && "access after finish()");
  if (Events.empty())
    return;
  if (!Sinks.empty()) {
    flushAccesses(); // Keep order with any buffered single injections.
    for (TraceSink *Sink : Sinks)
      Sink->onAccessBatch(Events);
  }
  // Same clock rule as injectAccess, applied to the last event.
  if (Events.back().Time + 1 > Clock)
    Clock = Events.back().Time + 1;
}

void MemoryInterface::injectAlloc(const AllocEvent &Event) {
  assert(!Finished && "allocation after finish()");
  flushAccesses();
  for (TraceSink *Sink : Sinks)
    Sink->onAlloc(Event);
  if (Event.Time > Clock)
    Clock = Event.Time;
}

void MemoryInterface::injectFree(const FreeEvent &Event) {
  assert(!Finished && "free after finish()");
  flushAccesses();
  for (TraceSink *Sink : Sinks)
    Sink->onFree(Event);
  if (Event.Time > Clock)
    Clock = Event.Time;
}

void MemoryInterface::finish() {
  if (Finished)
    return;
  flushAccesses();
  Finished = true;
  if (!Sinks.empty()) {
    for (uint64_t Addr : StaticObjects) {
      FreeEvent Event{Addr, Clock};
      for (TraceSink *Sink : Sinks)
        Sink->onFree(Event);
    }
    for (TraceSink *Sink : Sinks)
      Sink->onFinish();
  }
}
