//===- trace/Events.cpp - Probe event stream and sinks -------------------===//

#include "trace/Events.h"

using namespace orp;
using namespace orp::trace;

TraceSink::~TraceSink() = default;

void TraceSink::onAccessBatch(std::span<const AccessEvent> Events) {
  for (const AccessEvent &Event : Events)
    onAccess(Event);
}

void TraceSink::onFinish() {}

void CountingSink::onAccess(const AccessEvent &Event) {
  ++Accesses;
  if (Event.IsStore)
    ++Stores;
  else
    ++Loads;
}

void CountingSink::onAccessBatch(std::span<const AccessEvent> Events) {
  Accesses += Events.size();
  uint64_t BatchStores = 0;
  for (const AccessEvent &Event : Events)
    BatchStores += Event.IsStore ? 1 : 0;
  Stores += BatchStores;
  Loads += Events.size() - BatchStores;
}

void CountingSink::onAlloc(const AllocEvent &) { ++Allocs; }

void CountingSink::onFree(const FreeEvent &) { ++Frees; }

void BufferSink::onAccess(const AccessEvent &Event) {
  AccessLog.push_back(Event);
}

void BufferSink::onAccessBatch(std::span<const AccessEvent> Events) {
  AccessLog.insert(AccessLog.end(), Events.begin(), Events.end());
}

void BufferSink::onAlloc(const AllocEvent &Event) {
  AllocLog.push_back(Event);
}

void BufferSink::onFree(const FreeEvent &Event) {
  FreeLog.push_back(Event);
}
