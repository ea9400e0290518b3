//===- core/ProfilingSession.cpp - Framework wiring facade ---------------===//

#include "core/ProfilingSession.h"

#include <cstdio>

using namespace orp;
using namespace orp::core;

ProfilingSession::ProfilingSession(memsim::AllocPolicy Policy, uint64_t Seed,
                                   telemetry::Registry &Collectors)
    : Translator(Omc, Collectors), Memory(Policy, Seed) {
  Memory.attachSink(&Translator);
}

bool ProfilingSession::injectAlloc(const trace::AllocEvent &Event,
                                   uint64_t BlockIndex, std::string &Err) {
  if (const char *Why = Omc.allocError(Event)) {
    char Detail[96];
    std::snprintf(Detail, sizeof(Detail), " (site %u, 0x%llx + %llu)",
                  static_cast<unsigned>(Event.Site),
                  static_cast<unsigned long long>(Event.Addr),
                  static_cast<unsigned long long>(Event.Size));
    Err = "block " + std::to_string(BlockIndex) + ": " + Why + Detail;
    return false;
  }
  Memory.injectAlloc(Event);
  return true;
}
