//===- RawIo.cpp - seeded endian-io violation ----------------------------===//
//
// Raw file I/O in a file that does not include support/Endian.h must be
// reported once, at the first I/O call.
//
//===----------------------------------------------------------------------===//

#include <cstdint>
#include <cstdio>
#include <fstream>

namespace fixture {

void dump(std::FILE *Out, uint32_t Word) {
  std::fwrite(&Word, sizeof(Word), 1, Out);
  std::ofstream Copy("copy.bin", std::ios::binary);
  Copy.write(reinterpret_cast<const char *>(&Word), sizeof(Word));
}

} // namespace fixture
