//===- fuzz/CheckpointFuzz.cpp - ORCK restore on arbitrary bytes ---------===//
//
// Property: ProfileSession::restoreCheckpoint accepts or rejects ANY
// byte string cleanly against a small recorded trace — no crash, no
// sanitizer report — and a rejection carries an error message. Each
// input is tried twice: as given, and with its checksum field patched
// to match the bytes after it, so mutations reach the progress, config,
// trace-identity and OMC sections instead of stopping at the CRC.
//
// Round trip: an accepted image must describe a session that
// checkpoints again, and that image must restore in a fresh session to
// the same NextBlock and event count and re-checkpoint to the same
// bytes. Seeds are checkpoint() images taken at several block
// boundaries.
//
// Resume: the restored session then replays the rest of the trace. The
// CRC is no authentication, so a forged image can claim live objects
// that the trace allocates again; the replay must then fail with an
// error (the allocation is refused before it reaches the OMC), never
// crash. A replay that finishes leaves a session that finalizes; one
// that fails leaves a failed session whose artifacts say so.
//
//===----------------------------------------------------------------------===//

#include "FuzzTarget.h"

#include "memsim/Allocator.h"
#include "session/ProfileSession.h"
#include "support/Checksum.h"
#include "trace/Events.h"
#include "trace/InstructionRegistry.h"
#include "traceio/TraceReader.h"
#include "traceio/TraceWriter.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

using namespace orp;

namespace {

/// Offset of the CRC-32 field in an ORCK image: magic, then version.
constexpr size_t kCrcAt = 5;
constexpr size_t kHeaderSize = kCrcAt + 4;

/// Records a small probe stream through the real writer: a few objects
/// in two allocation sites, accessed in an interleaved pattern, some
/// freed mid-trace, in blocks small enough that the trace has many
/// boundaries to checkpoint at.
std::vector<uint8_t> recordTraceImage() {
  std::string Path = (std::filesystem::temp_directory_path() /
                      "orp-checkpoint-fuzz-seed.orpt")
                         .string();
  trace::InstructionRegistry Registry;
  trace::InstrId Load =
      Registry.addInstruction("fuzz: load", trace::AccessKind::Load);
  trace::InstrId Store =
      Registry.addInstruction("fuzz: store", trace::AccessKind::Store);
  trace::AllocSiteId Nodes = Registry.addAllocSite("fuzz: node", "struct n");
  trace::AllocSiteId Bufs = Registry.addAllocSite("fuzz: buf", "char[]");
  {
    traceio::TraceWriter Writer(Path, Registry, memsim::AllocPolicy::FirstFit,
                                /*Seed=*/7, /*BlockBytes=*/128);
    uint64_t Time = 0;
    for (uint64_t Obj = 0; Obj != 6; ++Obj)
      Writer.onAlloc({Obj % 2 ? Bufs : Nodes, 0x10000 + Obj * 0x100,
                      /*Size=*/64, ++Time, /*IsStatic=*/false});
    for (uint64_t I = 0; I != 120; ++I) {
      uint64_t Obj = (I * 5) % 6;
      Writer.onAccess({(I & 1) ? Store : Load,
                       0x10000 + Obj * 0x100 + (I % 8) * 8, /*Size=*/8,
                       /*IsStore=*/(I & 1) != 0, ++Time});
      if (I == 60)
        Writer.onFree({0x10000 + 3 * 0x100, ++Time});
    }
    Writer.onFinish();
  }
  std::ifstream In(Path, std::ios::binary);
  std::vector<uint8_t> Bytes((std::istreambuf_iterator<char>(In)),
                             std::istreambuf_iterator<char>());
  In.close();
  std::remove(Path.c_str());
  return Bytes;
}

/// The trace every input is restored against, opened once.
traceio::TraceReader &traceReader() {
  static traceio::TraceReader Reader;
  static const bool Opened =
      Reader.openImage(recordTraceImage(), "checkpoint-fuzz.orpt");
  ORP_FUZZ_REQUIRE(Opened, "the recorded trace does not open");
  return Reader;
}

/// Restores \p Image into a fresh session and checks the properties
/// above.
void checkImage(const std::vector<uint8_t> &Image) {
  traceio::TraceReader &Reader = traceReader();
  session::ProfileSession Session("fuzz", session::recordedConfig(Reader));
  uint64_t Next = 0;
  std::string Err;
  if (!Session.restoreCheckpoint(Image, Reader, Next, Err)) {
    ORP_FUZZ_REQUIRE(!Err.empty(), "rejected checkpoint without an error");
    return;
  }
  ORP_FUZZ_REQUIRE(Next <= Reader.numEventBlocks(),
                   "accepted checkpoint resumes past the trace");

  std::vector<uint8_t> Again = Session.checkpoint(Reader, Next);
  session::ProfileSession Twin("fuzz-twin", session::recordedConfig(Reader));
  uint64_t TwinNext = 0;
  ORP_FUZZ_REQUIRE(Twin.restoreCheckpoint(Again, Reader, TwinNext, Err),
                   "re-checkpoint of an accepted image is rejected");
  ORP_FUZZ_REQUIRE(TwinNext == Next &&
                       Twin.eventsInjected() == Session.eventsInjected(),
                   "checkpoint round trip changes NextBlock or events");
  ORP_FUZZ_REQUIRE(Twin.checkpoint(Reader, TwinNext) == Again,
                   "checkpoint round trip changes the image");

  const bool Resumed = Session.replayFrom(Reader, /*DecodeThreads=*/1, Next);
  ORP_FUZZ_REQUIRE(Resumed || (Session.failed() && !Session.error().empty()),
                   "resumed replay fails without an error");
  session::SessionArtifacts A = Session.finalize();
  ORP_FUZZ_REQUIRE(A.Failed == !Resumed,
                   Resumed ? "resumed session fails to finalize"
                           : "failed resume finalizes as healthy");
}

/// \p Image with its CRC field matching the bytes after the header.
std::vector<uint8_t> withValidCrc(std::vector<uint8_t> Image) {
  if (Image.size() < kHeaderSize)
    return Image;
  uint32_t Crc = crc32(Image.data() + kHeaderSize, Image.size() - kHeaderSize);
  for (unsigned I = 0; I != 4; ++I)
    Image[kCrcAt + I] = static_cast<uint8_t>(Crc >> (8 * I));
  return Image;
}

} // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t *Data, size_t Size) {
  std::vector<uint8_t> Image(Data, Data + Size);
  checkImage(Image);
  checkImage(withValidCrc(std::move(Image)));
  return 0;
}

std::vector<std::vector<uint8_t>> orpFuzzSeedInputs() {
  traceio::TraceReader &Reader = traceReader();
  const uint64_t Blocks = Reader.numEventBlocks();
  std::vector<std::vector<uint8_t>> Seeds;
  // A checkpoint at the start, after the first block, mid-trace (live
  // objects, one freed) and at the end.
  for (uint64_t At : {uint64_t(0), uint64_t(1), Blocks / 2, Blocks}) {
    session::ProfileSession Session("seed", session::recordedConfig(Reader));
    ORP_FUZZ_REQUIRE(Session.replayFrom(Reader, 1, 0, At),
                     "seed replay failed");
    Seeds.push_back(Session.checkpoint(Reader, At));
  }
  // Degenerate seeds: empty, bare magic, header with a junk version.
  Seeds.push_back({});
  Seeds.push_back({'O', 'R', 'C', 'K'});
  Seeds.push_back({'O', 'R', 'C', 'K', 0xff, 0, 0, 0, 0});
  return Seeds;
}
