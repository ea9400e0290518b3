//===- Allowed.cpp - every violation, suppressed -------------------------===//
//
// The same violations as the other fixture files, each under an
// allow() escape. None of these may appear in the analyzer's output;
// the fixture harness greps for "Allowed.cpp" and fails if it does.
// endian-io's escape is per file, so its twin is IoAllowed.cpp.
//
//===----------------------------------------------------------------------===//

#include <sys/socket.h> // orp-analyze: allow(raw-socket): fixture.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <unordered_map>
#include <vector>

namespace fixture_allowed {

std::atomic<int> Flag{0};

void publishAllowed() {
  // orp-analyze: allow(atomics): fixture exercising the escape hatch.
  Flag.store(1, std::memory_order_seq_cst);
}

void spawnAllowed() {
  // orp-analyze: allow(raw-thread): fixture exercising the escape hatch.
  std::thread T([] {});
  T.join();
}

class SortedSerializer {
public:
  std::vector<uint8_t> serializeAllowed() const {
    std::vector<uint8_t> Out;
    // orp-analyze: allow(unordered-serialize): feeds a sort (fixture).
    for (const auto &Entry : Groups)
      Out.push_back(static_cast<uint8_t>(Entry.first));
    return Out;
  }

private:
  std::unordered_map<uint64_t, uint32_t> Groups;
};

int *allocAllowed() {
  // orp-analyze: allow(raw-new-delete): fixture exercising the escape hatch.
  return new int[4];
}

void poisonAllowed(void *P) {
  // orp-analyze: allow(no-asan-include): fixture exercising the escape hatch.
  __asan_poison_memory_region(P, 4);
}

void shoutAllowed() {
  // orp-analyze: allow(log-sink): fixture exercising the escape hatch.
  std::fprintf(stderr, "allowed\n");
}

// orp-analyze: allow(static-counter): fixture exercising the escape hatch.
static std::atomic<uint64_t> AllowedHits{0};

} // namespace fixture_allowed
