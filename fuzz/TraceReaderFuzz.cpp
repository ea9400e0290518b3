//===- fuzz/TraceReaderFuzz.cpp - TraceReader on malformed .orpt ---------===//
//
// Property: TraceReader must reject or cleanly parse ANY byte string —
// no crash, no sanitizer report, no unbounded work. A parse that
// succeeds must also decode every event without tripping the hardened
// varint layer. Each input is also written to a temporary file and
// opened through open(), which maps it: the mapped path must reach the
// same verdict, error string and header info as openImage(). Seeds are
// real .orpt images produced by TraceWriter so mutations explore the
// format's interior, not just the header checks.
//
//===----------------------------------------------------------------------===//

#include "FuzzTarget.h"

#include "memsim/Allocator.h"
#include "trace/Events.h"
#include "trace/InstructionRegistry.h"
#include "traceio/TraceReader.h"
#include "traceio/TraceWriter.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

using namespace orp;

namespace {

/// Header info a reader reports, flattened for comparison.
std::vector<uint64_t> infoOf(const traceio::TraceReader &R) {
  const traceio::TraceInfo &I = R.info();
  return {I.Version,   I.Flags,     I.AllocPolicy,
          I.Seed,      I.TotalEvents, I.NumBlocks,
          I.FileBytes, I.NumInstructions, I.NumAllocSites};
}

/// A per-process temporary file for the mapped-open half of the check.
const std::string &tempTracePath() {
  static const std::string Path =
      (std::filesystem::temp_directory_path() /
       ("orp-tracereader-fuzz-" + std::to_string(::getpid()) + ".orpt"))
          .string();
  return Path;
}

} // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t *Data, size_t Size) {
  traceio::TraceReader Reader;
  std::vector<uint8_t> Image(Data, Data + Size);
  bool Ok = Reader.openImage(Image, tempTracePath());

  // The same bytes through open(): a mapping for a non-empty file.
  {
    std::ofstream Out(tempTracePath(), std::ios::binary | std::ios::trunc);
    Out.write(reinterpret_cast<const char *>(Data),
              static_cast<std::streamsize>(Size));
  }
  traceio::TraceReader Mapped;
  bool MappedOk = Mapped.open(tempTracePath());
  std::remove(tempTracePath().c_str());
  ORP_FUZZ_REQUIRE(MappedOk == Ok, "open() and openImage() disagree");
  ORP_FUZZ_REQUIRE(Mapped.error() == Reader.error(),
                   "open() and openImage() report different errors");
  ORP_FUZZ_REQUIRE(infoOf(Mapped) == infoOf(Reader),
                   "open() and openImage() report different header info");

  if (!Ok) {
    // Rejected inputs must carry a diagnostic.
    ORP_FUZZ_REQUIRE(!Reader.error().empty(),
                     "rejected image without an error message");
    return 0;
  }
  std::vector<traceio::TraceEvent> Events;
  bool Decoded = Reader.readAllEvents(Events);
  if (!Decoded)
    ORP_FUZZ_REQUIRE(!Reader.error().empty(),
                     "failed decode without an error message");
  std::vector<traceio::TraceEvent> MappedEvents;
  ORP_FUZZ_REQUIRE(Mapped.readAllEvents(MappedEvents) == Decoded &&
                       MappedEvents.size() == Events.size() &&
                       Mapped.error() == Reader.error(),
                   "mapped and in-memory images decode differently");
  return 0;
}

/// Records a small synthetic probe stream through the real writer in
/// the given .orpt format version and returns the file's bytes.
static std::vector<uint8_t> recordSeedTrace(uint8_t FormatVersion) {
  std::string Path =
      (std::filesystem::temp_directory_path() / "orp-tracereader-fuzz-seed.orpt")
          .string();
  trace::InstructionRegistry Registry;
  trace::InstrId Load = Registry.addInstruction("fuzz: load", trace::AccessKind::Load);
  trace::InstrId Store =
      Registry.addInstruction("fuzz: store", trace::AccessKind::Store);
  trace::AllocSiteId Site = Registry.addAllocSite("fuzz: alloc", "struct fz");
  {
    traceio::TraceWriter Writer(Path, Registry, memsim::AllocPolicy::FirstFit,
                                /*Seed=*/42, /*BlockBytes=*/128,
                                FormatVersion);
    uint64_t Time = 0;
    Writer.onAlloc({Site, /*Addr=*/0x1000, /*Size=*/64, ++Time,
                    /*IsStatic=*/false});
    for (uint64_t I = 0; I != 40; ++I) {
      Writer.onAccess({(I & 1) ? Store : Load, 0x1000 + (I % 8) * 8,
                       /*Size=*/8, /*IsStore=*/(I & 1) != 0, ++Time});
    }
    Writer.onFree({0x1000, ++Time});
    Writer.onFinish();
  }
  std::ifstream In(Path, std::ios::binary);
  std::vector<uint8_t> Bytes((std::istreambuf_iterator<char>(In)),
                             std::istreambuf_iterator<char>());
  In.close();
  std::remove(Path.c_str());
  return Bytes;
}

std::vector<std::vector<uint8_t>> orpFuzzSeedInputs() {
  std::vector<std::vector<uint8_t>> Seeds;
  // One seed per on-disk encoding, so mutations explore both the v1
  // interleaved record interior and the v2 column directory.
  Seeds.push_back(recordSeedTrace(traceio::kFormatVersionV1));
  Seeds.push_back(recordSeedTrace(traceio::kFormatVersionV2));
  // Degenerate seeds: empty input, bare magic, magic + junk version.
  Seeds.push_back({});
  Seeds.push_back({'O', 'R', 'P', 'T'});
  Seeds.push_back({'O', 'R', 'P', 'T', 0xff, 0, 0, 0});
  return Seeds;
}
