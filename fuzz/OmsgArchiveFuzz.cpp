//===- fuzz/OmsgArchiveFuzz.cpp - OMSG artifacts on hostile bytes --------===//
//
// Property: OmsgArchive::deserialize and OmsgStats::deserialize must
// reject or cleanly parse ANY byte string — no crash, no sanitizer
// report, no grammar-expansion blowup (the checked Sequitur expander
// enforces terminal and step budgets). Accepted parses must be
// serialization fixpoints, each dimension's cursor must expand to what
// the checked expander produces from the same image, the classifier's
// offset-pair counts of an accepted 4-dimension archive must equal an
// ordered-map count over those expansions, and the digest/merge path
// over accepted archives must hold. Inputs are exercised raw and
// re-framed under freshly checksummed OMSA/OMST headers so mutations
// reach the payload decoders, not just the CRC gate.
//
//===----------------------------------------------------------------------===//

#include "FuzzTarget.h"

#include "advisor/HotColdClassifier.h"
#include "core/ObjectRelative.h"
#include "support/Checksum.h"
#include "support/Endian.h"
#include "whomp/OmsgArchive.h"
#include "whomp/OmsgStats.h"
#include "whomp/Whomp.h"

#include <algorithm>
#include <map>
#include <string>

using namespace orp;

/// Frames \p Payload under a valid 4-byte magic + version + CRC header.
static std::vector<uint8_t> wrapWithHeader(const uint8_t *Magic,
                                           uint8_t Version,
                                           const uint8_t *Payload,
                                           size_t Size) {
  std::vector<uint8_t> Bytes;
  Bytes.reserve(9 + Size);
  Bytes.insert(Bytes.end(), Magic, Magic + 4);
  Bytes.push_back(Version);
  appendLE32(crc32(Payload, Size), Bytes);
  Bytes.insert(Bytes.end(), Payload, Payload + Size);
  return Bytes;
}

/// The classifier's offset-pair counts of an accepted 4-dimension archive
/// equal an ordered-map count over the checked expansions of its group,
/// object and offset streams (walked up to the shortest one, as the
/// classifier's lockstep cursors stop there).
static void checkOffsetPairs(const whomp::OmsgArchive &Archive,
                             const std::vector<uint64_t> &Groups,
                             const std::vector<uint64_t> &Objects,
                             const std::vector<uint64_t> &Offsets) {
  std::map<advisor::OffsetPairKey, uint64_t> Reference;
  size_t N = std::min({Groups.size(), Objects.size(), Offsets.size()});
  for (size_t I = 1; I < N; ++I) {
    if (Groups[I] != Groups[I - 1] || Objects[I] != Objects[I - 1] ||
        Offsets[I] == Offsets[I - 1])
      continue;
    ++Reference[advisor::OffsetPairKey{
        static_cast<omc::GroupId>(Groups[I]),
        std::min(Offsets[I - 1], Offsets[I]),
        std::max(Offsets[I - 1], Offsets[I])}];
  }
  advisor::OffsetPairCounts Counts = advisor::offsetPairsFromArchive(Archive);
  ORP_FUZZ_REQUIRE(Counts.size() == Reference.size(),
                   "offset-pair table holds a different number of pairs");
  for (const auto &[Key, Count] : Reference)
    ORP_FUZZ_REQUIRE(Counts.count(Key) == Count,
                     "offset-pair count differs from the expanded streams");
}

static void checkArchiveImage(const std::vector<uint8_t> &Bytes) {
  whomp::OmsgArchive Out;
  std::string Err;
  if (!whomp::OmsgArchive::deserialize(Bytes, Out, Err)) {
    ORP_FUZZ_REQUIRE(!Err.empty(), "rejected archive without a diagnostic");
    return;
  }
  // Every accepted image expands, through its cursor, to exactly what the
  // checked expander produces from the same bytes.
  std::vector<std::vector<uint64_t>> Streams(Out.numDimensions());
  for (size_t D = 0; D != Out.numDimensions(); ++D) {
    const std::vector<uint8_t> &Image = Out.grammarImages()[D].bytes();
    std::vector<uint64_t> &Expanded = Streams[D];
    ORP_FUZZ_REQUIRE(sequitur::deserializeAndExpandChecked(
                         Image.data(), Image.size(), Expanded, Err),
                     "accepted grammar image fails the checked expander");
    sequitur::ImageCursor C = Out.cursor(D);
    for (uint64_t Want : Expanded)
      ORP_FUZZ_REQUIRE(!C.done() && C.next() == Want,
                       "cursor expansion differs from the checked expander");
    ORP_FUZZ_REQUIRE(C.done(), "cursor expansion runs past the image");
  }
  if (Out.numDimensions() == 4)
    checkOffsetPairs(Out, Streams[1], Streams[2], Streams[3]);
  std::vector<uint8_t> Canonical = Out.serialize();
  whomp::OmsgArchive Again;
  ORP_FUZZ_REQUIRE(
      whomp::OmsgArchive::deserialize(Canonical, Again, Err),
      "canonical serialization of an accepted archive failed to parse");
  ORP_FUZZ_REQUIRE(Again == Out, "serialize/deserialize is not a fixpoint");
  // The statistics digest of any accepted archive must build and fold.
  whomp::OmsgStats Stats = whomp::OmsgStats::fromArchive(Out);
  whomp::OmsgStats Folded;
  ORP_FUZZ_REQUIRE(Folded.merge(Stats, Err), "digest fold failed");
  whomp::OmsgStats StatsBack;
  ORP_FUZZ_REQUIRE(
      whomp::OmsgStats::deserialize(Folded.serialize(), StatsBack, Err),
      "serialized digest failed to parse");
  ORP_FUZZ_REQUIRE(StatsBack == Folded, "digest round trip differs");
}

static void checkStatsImage(const std::vector<uint8_t> &Bytes) {
  whomp::OmsgStats Out;
  std::string Err;
  if (!whomp::OmsgStats::deserialize(Bytes, Out, Err)) {
    ORP_FUZZ_REQUIRE(!Err.empty(), "rejected digest without a diagnostic");
    return;
  }
  whomp::OmsgStats Again;
  ORP_FUZZ_REQUIRE(
      whomp::OmsgStats::deserialize(Out.serialize(), Again, Err),
      "canonical serialization of an accepted digest failed to parse");
  ORP_FUZZ_REQUIRE(Again == Out, "digest serialize/deserialize differs");
}

extern "C" int LLVMFuzzerTestOneInput(const uint8_t *Data, size_t Size) {
  std::vector<uint8_t> Raw(Data, Data + Size);
  checkArchiveImage(Raw);
  checkStatsImage(Raw);
  checkArchiveImage(wrapWithHeader(whomp::OmsgArchive::kMagic,
                                   whomp::OmsgArchive::kFormatVersion, Data,
                                   Size));
  checkStatsImage(wrapWithHeader(
      reinterpret_cast<const uint8_t *>(whomp::OmsgStats::kMagic),
      whomp::OmsgStats::kFormatVersion, Data, Size));
  return 0;
}

/// A real archive from a short tuple stream with repetition (so the
/// grammars contain rules) plus an aux table boundary case.
static std::vector<uint8_t> seedArchive() {
  whomp::WhompProfiler Whomp;
  uint64_t Time = 0;
  for (unsigned Round = 0; Round != 8; ++Round)
    for (unsigned I = 0; I != 16; ++I)
      Whomp.consume(core::OrTuple{1 + (I % 2), I % 3, I % 5, (I % 7) * 8,
                                  ++Time, false, 8});
  Whomp.finish();
  return whomp::OmsgArchive::build(Whomp).serialize();
}

/// An archive whose tuples walk the fields of one object at a time, so
/// the offset-pair property has pairs to count: 1,200 distinct ones,
/// more than the counting table's first 1,024 slots hold, so it grows.
static std::vector<uint8_t> seedArchiveWithFieldWalks() {
  whomp::WhompProfiler Whomp;
  uint64_t Time = 0;
  for (unsigned Obj = 0; Obj != 40; ++Obj)
    for (unsigned I = 0; I != 31; ++I)
      Whomp.consume(core::OrTuple{1 + (I % 3), Obj % 2, Obj,
                                  (Obj * 64 + (I * 7) % 31) * 8, ++Time,
                                  false, 8});
  Whomp.finish();
  return whomp::OmsgArchive::build(Whomp).serialize();
}

std::vector<std::vector<uint8_t>> orpFuzzSeedInputs() {
  std::vector<std::vector<uint8_t>> Seeds;
  Seeds.push_back(seedArchive());
  Seeds.push_back(seedArchiveWithFieldWalks());
  // Degenerate seeds for both magics.
  Seeds.push_back({});
  Seeds.push_back({'O', 'M', 'S', 'A'});
  Seeds.push_back({'O', 'M', 'S', 'T'});
  Seeds.push_back({'O', 'M', 'S', 'A', 0xff, 0, 0, 0, 0});
  static const uint8_t Empty = 0;
  Seeds.push_back(wrapWithHeader(whomp::OmsgArchive::kMagic,
                                 whomp::OmsgArchive::kFormatVersion, &Empty,
                                 0));
  return Seeds;
}
