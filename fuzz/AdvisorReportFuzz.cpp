//===- fuzz/AdvisorReportFuzz.cpp - Advice reports on hostile bytes ------===//
//
// Property: AdvisorReport::deserialize must reject or cleanly parse ANY
// byte string — no crash, no sanitizer report, no unbounded allocation.
// An accepted parse must be a serialization fixpoint (serialize() of the
// result reparses equal), and its derived counts (hot groups, pool
// candidates) must agree with the per-entry flags. The input is also
// re-framed as the payload of a freshly checksummed .orpa header so
// mutations explore the varint payload interior, not just the CRC gate.
//
//===----------------------------------------------------------------------===//

#include "FuzzTarget.h"

#include "advisor/AdvisorReport.h"
#include "support/Checksum.h"
#include "support/Endian.h"

#include <string>

using namespace orp;

/// Frames \p Payload with a valid .orpa header (magic, version, CRC) so
/// the payload decoder itself is reached.
static std::vector<uint8_t> wrapAsOrpa(const uint8_t *Payload, size_t Size) {
  // Built from the magic's range rather than inserted into a reserved
  // vector, which GCC 12 misreads as an overflow at -O2.
  std::vector<uint8_t> Bytes(advisor::AdvisorReport::kMagic,
                             advisor::AdvisorReport::kMagic + 4);
  Bytes.reserve(advisor::AdvisorReport::kHeaderSize + Size);
  Bytes.push_back(advisor::AdvisorReport::kFormatVersion);
  appendLE32(crc32(Payload, Size), Bytes);
  Bytes.insert(Bytes.end(), Payload, Payload + Size);
  return Bytes;
}

static void checkOneImage(const std::vector<uint8_t> &Bytes) {
  advisor::AdvisorReport Out;
  std::string Err;
  if (!advisor::AdvisorReport::deserialize(Bytes, Out, Err)) {
    ORP_FUZZ_REQUIRE(!Err.empty(), "rejected report without a diagnostic");
    return;
  }
  // Accepted input: canonical re-serialization must be a fixpoint.
  std::vector<uint8_t> Canonical = Out.serialize();
  advisor::AdvisorReport Again;
  ORP_FUZZ_REQUIRE(
      advisor::AdvisorReport::deserialize(Canonical, Again, Err),
      "canonical serialization of an accepted report failed to parse");
  ORP_FUZZ_REQUIRE(Again == Out, "serialize/deserialize is not a fixpoint");
  // Derived counts must agree with the flags the parser accepted.
  size_t Hot = 0, Pool = 0;
  for (const advisor::PlacementAdvice &P : Out.Placement) {
    Hot += P.Hot ? 1 : 0;
    Pool += P.PoolCandidate ? 1 : 0;
  }
  ORP_FUZZ_REQUIRE(Out.hotGroupCount() == Hot, "hot-group count drifted");
  ORP_FUZZ_REQUIRE(Out.poolCandidateCount() == Pool,
                   "pool-candidate count drifted");
}

extern "C" int LLVMFuzzerTestOneInput(const uint8_t *Data, size_t Size) {
  checkOneImage(std::vector<uint8_t>(Data, Data + Size));
  checkOneImage(wrapAsOrpa(Data, Size));
  return 0;
}

/// A synthetic report exercising every section and flag combination, so
/// mutations start from a well-formed image.
static std::vector<uint8_t> seedReport() {
  advisor::AdvisorReport R;
  // Rank order: density 100/64 > 40/640 > 0-access tail.
  R.Placement.push_back({/*Group=*/3, /*AccessCount=*/100,
                         /*FootprintBytes=*/64, /*ObjectCount=*/4,
                         /*MeanLifetime=*/12, /*Hot=*/true,
                         /*PoolCandidate=*/true});
  R.Placement.push_back({/*Group=*/1, /*AccessCount=*/40,
                         /*FootprintBytes=*/640, /*ObjectCount=*/10,
                         /*MeanLifetime=*/900, /*Hot=*/false,
                         /*PoolCandidate=*/false});
  R.Placement.push_back({/*Group=*/7, /*AccessCount=*/0,
                         /*FootprintBytes=*/0, /*ObjectCount=*/0,
                         /*MeanLifetime=*/0, /*Hot=*/false,
                         /*PoolCandidate=*/false});
  R.Layout.push_back({/*Group=*/3, /*OffA=*/0, /*OffB=*/8,
                      /*PairCount=*/55});
  R.Layout.push_back({/*Group=*/3, /*OffA=*/8, /*OffB=*/120,
                      /*PairCount=*/9});
  R.Prefetch.push_back({/*Instr=*/4, /*Stride=*/24, /*SharePermille=*/950,
                        /*Distance=*/96});
  R.Prefetch.push_back({/*Instr=*/9, /*Stride=*/-16, /*SharePermille=*/1,
                        /*Distance=*/64});
  return R.serialize();
}

std::vector<std::vector<uint8_t>> orpFuzzSeedInputs() {
  std::vector<std::vector<uint8_t>> Seeds;
  Seeds.push_back(seedReport());
  // Empty-but-valid report.
  Seeds.push_back(advisor::AdvisorReport().serialize());
  // Degenerate seeds: empty, bare magic, magic + junk version byte.
  Seeds.push_back({});
  Seeds.push_back({'O', 'R', 'P', 'A'});
  Seeds.push_back({'O', 'R', 'P', 'A', 0xff, 0, 0, 0, 0});
  // An empty-but-valid payload frame (header with zero-length payload).
  static const uint8_t Empty = 0;
  Seeds.push_back(wrapAsOrpa(&Empty, 0));
  return Seeds;
}
