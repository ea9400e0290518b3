//===- fuzz/LeapProfileDataFuzz.cpp - LEAP profiles on hostile bytes -----===//
//
// Property: LeapProfileData::deserialize must reject or cleanly parse
// ANY byte string — no crash, no sanitizer report, no unbounded
// allocation. An accepted parse must be a serialization fixpoint
// (serialize() of the result reparses equal), and self-union-merging an
// accepted profile must succeed and stay parseable. The input is also
// re-framed as the payload of a freshly checksummed LEAP header so
// mutations explore the varint payload interior, not just the CRC gate.
//
//===----------------------------------------------------------------------===//

#include "FuzzTarget.h"

#include "leap/Leap.h"
#include "leap/LeapProfileData.h"
#include "support/Checksum.h"
#include "support/Endian.h"

#include <string>

using namespace orp;

/// Frames \p Payload with a valid LEAP header (magic, version, CRC) so
/// the payload decoder itself is reached.
static std::vector<uint8_t> wrapAsLeap(const uint8_t *Payload, size_t Size) {
  // Built from the magic's range rather than inserted into a reserved
  // vector, which GCC 12 misreads as an overflow at -O2.
  std::vector<uint8_t> Bytes(leap::LeapProfileData::kMagic,
                             leap::LeapProfileData::kMagic + 4);
  Bytes.reserve(leap::LeapProfileData::kHeaderSize + Size);
  Bytes.push_back(leap::LeapProfileData::kFormatVersion);
  appendLE32(crc32(Payload, Size), Bytes);
  Bytes.insert(Bytes.end(), Payload, Payload + Size);
  return Bytes;
}

static void checkOneImage(const std::vector<uint8_t> &Bytes) {
  leap::LeapProfileData Out;
  std::string Err;
  if (!leap::LeapProfileData::deserialize(Bytes, Out, Err)) {
    ORP_FUZZ_REQUIRE(!Err.empty(), "rejected profile without a diagnostic");
    return;
  }
  // Accepted input: canonical re-serialization must be a fixpoint.
  std::vector<uint8_t> Canonical = Out.serialize();
  leap::LeapProfileData Again;
  ORP_FUZZ_REQUIRE(
      leap::LeapProfileData::deserialize(Canonical, Again, Err),
      "canonical serialization of an accepted profile failed to parse");
  ORP_FUZZ_REQUIRE(Again == Out, "serialize/deserialize is not a fixpoint");
  // Union self-merge always has matching caps; it must fold cleanly and
  // the result must still serialize to a parseable image.
  ORP_FUZZ_REQUIRE(Again.mergeUnion(Out, Err),
                   "union self-merge of an accepted profile failed");
  leap::LeapProfileData Merged;
  ORP_FUZZ_REQUIRE(
      leap::LeapProfileData::deserialize(Again.serialize(), Merged, Err),
      "serialized self-merge failed to parse");
}

extern "C" int LLVMFuzzerTestOneInput(const uint8_t *Data, size_t Size) {
  checkOneImage(std::vector<uint8_t>(Data, Data + Size));
  checkOneImage(wrapAsLeap(Data, Size));
  return 0;
}

/// A real profile with captured descriptors, overflow and mixed
/// load/store instructions, so mutations start from a well-formed image.
static std::vector<uint8_t> seedProfile(unsigned MaxLmads) {
  leap::LeapProfiler Leap(MaxLmads);
  uint64_t Time = 0;
  for (uint64_t I = 0; I != 200; ++I) {
    // Substream (1, 0): regular strides that stay within the cap.
    Leap.consume(core::OrTuple{1, 0, I % 4, (I % 16) * 8, ++Time,
                               (I & 1) != 0, 8});
    // Substream (2, 1): pseudo-random offsets that overflow the cap.
    Leap.consume(core::OrTuple{2, 1, (I * 2654435761u) % 97,
                               ((I * 40503u) % 61) * 4, ++Time, false, 4});
  }
  return leap::LeapProfileData::fromProfiler(Leap).serialize();
}

std::vector<std::vector<uint8_t>> orpFuzzSeedInputs() {
  std::vector<std::vector<uint8_t>> Seeds;
  Seeds.push_back(seedProfile(/*MaxLmads=*/30));
  Seeds.push_back(seedProfile(/*MaxLmads=*/2)); // Dense overflow path.
  // Degenerate seeds: empty, bare magic, magic + junk version byte.
  Seeds.push_back({});
  Seeds.push_back({'L', 'E', 'A', 'P'});
  Seeds.push_back({'L', 'E', 'A', 'P', 0xff, 0, 0, 0, 0});
  // An empty-but-valid payload frame (header with zero-length payload).
  static const uint8_t Empty = 0;
  Seeds.push_back(wrapAsLeap(&Empty, 0));
  return Seeds;
}
