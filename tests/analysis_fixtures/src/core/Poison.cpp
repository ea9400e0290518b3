//===- Poison.cpp - seeded no-asan-include violation ---------------------===//
//
// Only src/check/Check.h may call the ASan poisoning intrinsics; the
// rest of the tree goes through check::poisonRegion.
//
//===----------------------------------------------------------------------===//

#include <sanitizer/asan_interface.h>

#include <cstddef>

namespace fixture {

void retire(void *P, size_t N) { __asan_poison_memory_region(P, N); }

} // namespace fixture
