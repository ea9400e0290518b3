//===- Shout.cpp - seeded log-sink violation -----------------------------===//
//
// tools/ are held to the log sink too: fprintf(stderr, ...) outside
// src/support must be reported, even when the call spans two lines.
//
//===----------------------------------------------------------------------===//

#include <cstdio>

namespace fixture {

void shout(const char *What) {
  std::fprintf(stderr, "shout: %s\n", What);
  std::fprintf(
      stderr, "again: %s\n", What);
}

} // namespace fixture
