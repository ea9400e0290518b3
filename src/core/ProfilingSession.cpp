//===- core/ProfilingSession.cpp - Framework wiring facade ---------------===//

#include "core/ProfilingSession.h"

using namespace orp;
using namespace orp::core;

ProfilingSession::ProfilingSession(memsim::AllocPolicy Policy, uint64_t Seed,
                                   UnknownAddressPolicy Unknown,
                                   telemetry::Registry &Collectors)
    : Translator(Omc, Unknown, Collectors), Memory(Policy, Seed) {
  Memory.attachSink(&Translator);
}
