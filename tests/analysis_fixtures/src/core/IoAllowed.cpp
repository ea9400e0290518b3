//===- IoAllowed.cpp - endian-io, suppressed for the whole file ----------===//
//
// orp-analyze: allow(endian-io): fixture exercising the per-file escape;
// it covers the I/O far below, not just the next line.
//
//===----------------------------------------------------------------------===//

#include <cstdint>
#include <cstdio>
#include <fstream>

namespace fixture_allowed {

void dump(std::FILE *Out, uint32_t Word) {
  std::fwrite(&Word, sizeof(Word), 1, Out);
  std::ofstream Copy("copy.bin", std::ios::binary);
  Copy.write(reinterpret_cast<const char *>(&Word), sizeof(Word));
}

} // namespace fixture_allowed
