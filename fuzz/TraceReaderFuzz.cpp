//===- fuzz/TraceReaderFuzz.cpp - TraceReader on malformed .orpt ---------===//
//
// Property: TraceReader must reject or cleanly parse ANY byte string —
// no crash, no sanitizer report, no unbounded work. A parse that
// succeeds must also decode every event without tripping the hardened
// varint layer. Each input is also written to a temporary file and
// opened through open(), which reads its header and trailer (registry,
// block table, end marker) with two preads and maps it for payload
// reads: the mapped path must reach the same verdict, error
// string and header info as openImage(), decode the same event
// sequence, hand out byte-equal rawBlock() payloads, and decode every
// block alone (walked last block first, against any replay's order) to
// the same result. Seeds are real .orpt images produced by TraceWriter
// so mutations explore the format's interior, not just the header
// checks; one records one event per block, so its block table holds
// many entries.
//
//===----------------------------------------------------------------------===//

#include "FuzzTarget.h"

#include "memsim/Allocator.h"
#include "trace/Events.h"
#include "trace/InstructionRegistry.h"
#include "traceio/TraceReader.h"
#include "traceio/TraceWriter.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <tuple>
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

/// One decoded event, flattened for comparison.
using EventKey =
    std::tuple<int, uint32_t, uint64_t, uint64_t, uint64_t, bool, bool>;

EventKey keyOf(const traceio::TraceEvent &E) {
  return {static_cast<int>(E.K), E.InstrOrSite, E.Addr, E.Size,
          E.Time,                E.IsStore,     E.IsStatic};
}

std::vector<EventKey> keysOf(const std::vector<traceio::TraceEvent> &Events) {
  std::vector<EventKey> Keys;
  for (const traceio::TraceEvent &E : Events)
    Keys.push_back(keyOf(E));
  return Keys;
}

/// Decodes block \p B alone and flattens the result: the verdict, then
/// each boundary's position and event, then the access column.
std::vector<EventKey> decodeBlockAlone(traceio::TraceReader &R, size_t B) {
  traceio::DecodedBlock Block;
  bool Ok = R.decodeBlockColumns(B, Block);
  std::vector<EventKey> Keys{{Ok, 0, 0, 0, 0, false, false}};
  for (const traceio::DecodedBlock::Boundary &Bd : Block.Boundaries) {
    Keys.push_back({-1, 0, Bd.AccessesBefore, 0, 0, false, false});
    Keys.push_back(keyOf(Bd.E));
  }
  for (const trace::AccessEvent &A : Block.Accesses)
    Keys.push_back({0, A.Instr, A.Addr, A.Size, A.Time, A.IsStore, false});
  return Keys;
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
                       keysOf(MappedEvents) == keysOf(Events) &&
                       Mapped.error() == Reader.error(),
                   "mapped and in-memory images decode differently");

  // Block by block, last first: the same raw payloads, and each block
  // decodes alone to the same events and verdict.
  ORP_FUZZ_REQUIRE(Mapped.numEventBlocks() == Reader.numEventBlocks(),
                   "mapped and in-memory images index different blocks");
  for (size_t B = Reader.numEventBlocks(); B-- != 0;) {
    traceio::TraceReader::RawBlock Want = Reader.rawBlock(B);
    traceio::TraceReader::RawBlock Got = Mapped.rawBlock(B);
    ORP_FUZZ_REQUIRE(Got.PayloadLen == Want.PayloadLen &&
                         Got.EventCount == Want.EventCount &&
                         Got.Crc == Want.Crc &&
                         Got.FileOffset == Want.FileOffset &&
                         std::equal(Got.Payload, Got.Payload + Got.PayloadLen,
                                    Want.Payload),
                     "mapped and in-memory raw blocks differ");
    ORP_FUZZ_REQUIRE(decodeBlockAlone(Mapped, B) ==
                             decodeBlockAlone(Reader, B) &&
                         Mapped.error() == Reader.error(),
                     "mapped and in-memory blocks decode differently");
  }
  return 0;
}

/// Records a small synthetic probe stream through the real writer at
/// the given block size and returns the file's bytes.
static std::vector<uint8_t> recordSeedTrace(size_t BlockBytes) {
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
                                /*Seed=*/42, BlockBytes);
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
  // A few multi-event blocks, so mutations explore the column
  // directory and the columns behind it.
  Seeds.push_back(recordSeedTrace(/*BlockBytes=*/128));
  // One event per block: 42 blocks give the block table 42 entries, so
  // mutations land in many counts, lengths and CRCs, and in the tiling
  // and event-sum checks that span them.
  Seeds.push_back(recordSeedTrace(/*BlockBytes=*/1));
  // Degenerate seeds: empty input, bare magic, magic + junk version.
  Seeds.push_back({});
  Seeds.push_back({'O', 'R', 'P', 'T'});
  Seeds.push_back({'O', 'R', 'P', 'T', 0xff, 0, 0, 0});
  return Seeds;
}
