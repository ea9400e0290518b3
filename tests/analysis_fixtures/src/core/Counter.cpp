//===- Counter.cpp - seeded static-counter violations --------------------===//
//
// Ad-hoc static counters outside src/support and src/telemetry must be
// reported; a constexpr constant is not a counter and must not be.
//
//===----------------------------------------------------------------------===//

#include <atomic>
#include <cstdint>

namespace fixture {

static std::atomic<uint64_t> Hits{0};
static int Calls = 0;
static constexpr int Limit = 8;

uint64_t bump() {
  if (++Calls > Limit)
    Calls = 0;
  return ++Hits;
}

} // namespace fixture
