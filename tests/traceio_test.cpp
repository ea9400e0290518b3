//===- tests/traceio_test.cpp - Trace record/replay tests ----------------===//
//
// The contract under test: a .orpt recording of a run, replayed into a
// fresh ProfilingSession, yields bit-identical profiles (OMSG archive,
// LEAP profile, RASG grammars) — and a damaged trace file is rejected
// with a clear error, never silently misparsed.
//
//===----------------------------------------------------------------------===//

#include "baseline/RasgProfiler.h"
#include "core/ProfilingSession.h"
#include "leap/LeapProfileData.h"
#include "session/ProfileSession.h"
#include "support/Checksum.h"
#include "support/Endian.h"
#include "support/MappedArray.h"
#include "support/WorkerPool.h"
#include "support/VarInt.h"
#include "traceio/BlockCodec.h"
#include "traceio/TraceReader.h"
#include "traceio/TraceWriter.h"
#include "whomp/OmsgArchive.h"
#include "whomp/Whomp.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

using namespace orp;

namespace {

std::string tempPath(const std::string &Name) {
  return testing::TempDir() + "orp_traceio_" + Name;
}

/// Runs \p WorkloadName live with \p Extra sinks/consumers attached and
/// records the probe stream to \p Path. Returns the session (finished).
std::unique_ptr<core::ProfilingSession>
recordRun(const std::string &WorkloadName, const std::string &Path,
          core::OrTupleConsumer *Consumer = nullptr,
          trace::TraceSink *RawSink = nullptr, uint64_t Scale = 1,
          size_t BlockBytes = traceio::TraceWriter::kDefaultBlockBytes) {
  auto Session = std::make_unique<core::ProfilingSession>(
      memsim::AllocPolicy::FirstFit, /*Seed=*/7);
  traceio::TraceWriter Writer(Path, Session->registry(),
                              memsim::AllocPolicy::FirstFit, /*Seed=*/7,
                              BlockBytes);
  EXPECT_TRUE(Writer.ok()) << Writer.error();
  Session->addRawSink(&Writer);
  if (Consumer)
    Session->addConsumer(Consumer);
  if (RawSink)
    Session->addRawSink(RawSink);

  auto W = workloads::createWorkloadByName(WorkloadName);
  EXPECT_TRUE(W);
  workloads::WorkloadConfig Config;
  Config.Scale = Scale;
  W->run(Session->memory(), Session->registry(), Config);
  Session->finish();
  EXPECT_TRUE(Writer.close()) << Writer.error();
  return Session;
}

std::vector<uint8_t> readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(In),
                              std::istreambuf_iterator<char>());
}

void writeFile(const std::string &Path, const std::vector<uint8_t> &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(reinterpret_cast<const char *>(Bytes.data()),
            static_cast<std::streamsize>(Bytes.size()));
}

/// Re-seals the header CRC of \p Image, so only the checks after the
/// header's own can fire.
void resealHeader(std::vector<uint8_t> &Image) {
  uint32_t Crc = crc32(Image.data(), 32);
  for (unsigned I = 0; I != 4; ++I)
    Image[32 + I] = static_cast<uint8_t>(Crc >> (8 * I));
}

/// Overwrites the header's u64 field at \p At and re-seals the header.
void patchHeader(std::vector<uint8_t> &Image, size_t At, uint64_t Value) {
  for (unsigned I = 0; I != 8; ++I)
    Image[At + I] = static_cast<uint8_t>(Value >> (8 * I));
  resealHeader(Image);
}

/// Sets the header's flags byte and re-seals the header.
void patchFlags(std::vector<uint8_t> &Image, uint8_t Flags) {
  Image[5] = Flags;
  resealHeader(Image);
}

/// Byte offset of the block table section of a finalized \p Image: the
/// end of the registry section.
size_t blockTableOffset(const std::vector<uint8_t> &Image) {
  size_t Pos = readLE64(Image.data() + 16) + 1; // Past the kind byte.
  uint64_t Len = decodeULEB128(Image, Pos);
  return Pos + 4 + Len;
}

/// One entry of a block table.
struct TableEntry {
  uint64_t PayloadLen;
  uint64_t EventCount;
  uint32_t Crc;
};

/// The block table of \p Image, as TraceReader reads it.
std::vector<TableEntry> tableOf(const std::vector<uint8_t> &Image) {
  traceio::TraceReader R;
  EXPECT_TRUE(R.openImage(Image, "intact.orpt")) << R.error();
  std::vector<TableEntry> Entries;
  for (size_t B = 0; B != R.numEventBlocks(); ++B) {
    traceio::TraceReader::RawBlock Raw = R.rawBlock(B);
    Entries.push_back({Raw.PayloadLen, Raw.EventCount, Raw.Crc});
  }
  return Entries;
}

/// A block table payload holding \p Entries under the declared block
/// count \p Count.
std::vector<uint8_t> encodeTable(const std::vector<TableEntry> &Entries,
                                 uint64_t Count) {
  std::vector<uint8_t> Out;
  encodeULEB128(Count, Out);
  for (const TableEntry &E : Entries) {
    encodeULEB128(E.PayloadLen, Out);
    encodeULEB128(E.EventCount, Out);
    appendLE32(E.Crc, Out);
  }
  return Out;
}

/// \p Image with its block table section replaced by a CRC-sealed one
/// holding \p Table, followed by the end marker.
std::vector<uint8_t> withTable(std::vector<uint8_t> Image,
                               const std::vector<uint8_t> &Table) {
  Image.resize(blockTableOffset(Image));
  Image.push_back(traceio::kBlockTable);
  encodeULEB128(Table.size(), Image);
  appendLE32(crc32(Table.data(), Table.size()), Image);
  Image.insert(Image.end(), Table.begin(), Table.end());
  Image.push_back(traceio::kEndMarker);
  return Image;
}

/// \p Image with block \p Block's payload replaced by \p Payload and
/// everything that seals it redone: the block's table entry (length and
/// CRC), the table section's CRC, the registry offset and the header
/// CRC. Only a check of the payload's contents can then fire.
std::vector<uint8_t> withBlockPayload(const std::vector<uint8_t> &Image,
                                      size_t Block,
                                      const std::vector<uint8_t> &Payload) {
  traceio::TraceReader R;
  EXPECT_TRUE(R.openImage(Image, "intact.orpt")) << R.error();
  std::vector<uint8_t> Out(Image.begin(), Image.begin() + traceio::kHeaderSize);
  std::vector<TableEntry> Entries;
  for (size_t B = 0; B != R.numEventBlocks(); ++B) {
    traceio::TraceReader::RawBlock Raw = R.rawBlock(B);
    const uint8_t *P = B == Block ? Payload.data() : Raw.Payload;
    const size_t Len = B == Block ? Payload.size() : Raw.PayloadLen;
    Out.insert(Out.end(), P, P + Len);
    Entries.push_back({Len, Raw.EventCount, crc32(P, Len)});
  }
  // The registry section moves verbatim; the header points at it.
  const size_t RegistryOffset = readLE64(Image.data() + 16);
  const uint64_t NewOffset = Out.size();
  Out.insert(Out.end(), Image.begin() + RegistryOffset,
             Image.begin() + blockTableOffset(Image));
  patchHeader(Out, 16, NewOffset);
  return withTable(std::move(Out), encodeTable(Entries, Entries.size()));
}

/// \p Reader's recorded configuration with both built-in profilers off,
/// for tests that attach their own sinks to the pipeline.
session::SessionConfig bareConfig(const traceio::TraceReader &Reader) {
  session::SessionConfig Config = session::recordedConfig(Reader);
  Config.EnableWhomp = false;
  Config.EnableLeap = false;
  return Config;
}

} // namespace

//===----------------------------------------------------------------------===//
// Round trips: replayed profiles are bit-identical to live ones
//===----------------------------------------------------------------------===//

TEST(TraceIoTest, GzipReplayProducesByteIdenticalOmsg) {
  // The acceptance scenario: record the gzip workload, replay with
  // WHOMP, compare the serialized OMSG archives byte for byte.
  std::string Path = tempPath("gzip.orpt");
  whomp::WhompProfiler Live;
  auto LiveSession = recordRun("164.gzip-a", Path, &Live);
  auto LiveBytes =
      whomp::OmsgArchive::build(Live, &LiveSession->omc()).serialize();

  traceio::TraceReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();
  session::SessionConfig Config = session::recordedConfig(Reader);
  Config.EnableLeap = false;
  session::ProfileSession Replayed("gzip", Config);
  ASSERT_TRUE(Replayed.replayFrom(Reader)) << Replayed.error();

  session::SessionArtifacts A = Replayed.finalize();
  EXPECT_EQ(Live.tuplesSeen(), Replayed.whomp()->tuplesSeen());
  EXPECT_EQ(LiveBytes, A.Omsg);
  std::remove(Path.c_str());
}

TEST(TraceIoTest, LeapReplayProducesIdenticalProfile) {
  std::string Path = tempPath("leap.orpt");
  leap::LeapProfiler Live(/*MaxLmads=*/30);
  recordRun("181.mcf-a", Path, &Live);
  auto LiveBytes = leap::LeapProfileData::fromProfiler(Live).serialize();

  traceio::TraceReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();
  session::SessionConfig Config = session::recordedConfig(Reader);
  Config.EnableWhomp = false;
  session::ProfileSession Replayed("leap", Config);
  ASSERT_TRUE(Replayed.replayFrom(Reader)) << Replayed.error();

  EXPECT_EQ(LiveBytes, Replayed.finalize().Leap);
  std::remove(Path.c_str());
}

TEST(TraceIoTest, RasgReplayProducesIdenticalGrammars) {
  std::string Path = tempPath("rasg.orpt");
  baseline::RasgProfiler Live;
  recordRun("list-traversal", Path, nullptr, &Live);

  traceio::TraceReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();
  baseline::RasgProfiler Offline; // Outlives the session that finishes it.
  session::ProfileSession Replayed("rasg", bareConfig(Reader));
  Replayed.core().addRawSink(&Offline);
  ASSERT_TRUE(Replayed.replayFrom(Reader)) << Replayed.error();
  (void)Replayed.finalize();

  EXPECT_EQ(Live.accessesSeen(), Offline.accessesSeen());
  EXPECT_EQ(Live.addressGrammar().serialize(),
            Offline.addressGrammar().serialize());
  EXPECT_EQ(Live.instructionGrammar().serialize(),
            Offline.instructionGrammar().serialize());
  std::remove(Path.c_str());
}

TEST(TraceIoTest, MultiBlockEventStreamRoundTrips) {
  // Tiny blocks force many delta-state resets; the decoded stream must
  // still match the live stream event for event.
  std::string Path = tempPath("blocks.orpt");
  trace::BufferSink Live;
  recordRun("list-traversal", Path, nullptr, &Live, /*Scale=*/1,
            /*BlockBytes=*/256);

  traceio::TraceReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();
  EXPECT_GT(Reader.info().NumBlocks, 1u);

  trace::BufferSink Offline; // Outlives the session that finishes it.
  session::ProfileSession Replayed("blocks", bareConfig(Reader));
  Replayed.core().addRawSink(&Offline);
  ASSERT_TRUE(Replayed.replayFrom(Reader)) << Replayed.error();
  (void)Replayed.finalize();

  ASSERT_EQ(Live.accesses().size(), Offline.accesses().size());
  for (size_t I = 0; I != Live.accesses().size(); ++I) {
    const trace::AccessEvent &A = Live.accesses()[I];
    const trace::AccessEvent &B = Offline.accesses()[I];
    ASSERT_EQ(A.Instr, B.Instr);
    ASSERT_EQ(A.Addr, B.Addr);
    ASSERT_EQ(A.Size, B.Size);
    ASSERT_EQ(A.IsStore, B.IsStore);
    ASSERT_EQ(A.Time, B.Time);
  }
  ASSERT_EQ(Live.allocs().size(), Offline.allocs().size());
  for (size_t I = 0; I != Live.allocs().size(); ++I) {
    const trace::AllocEvent &A = Live.allocs()[I];
    const trace::AllocEvent &B = Offline.allocs()[I];
    ASSERT_EQ(A.Site, B.Site);
    ASSERT_EQ(A.Addr, B.Addr);
    ASSERT_EQ(A.Size, B.Size);
    ASSERT_EQ(A.Time, B.Time);
    ASSERT_EQ(A.IsStatic, B.IsStatic);
  }
  ASSERT_EQ(Live.frees().size(), Offline.frees().size());
  for (size_t I = 0; I != Live.frees().size(); ++I) {
    ASSERT_EQ(Live.frees()[I].Addr, Offline.frees()[I].Addr);
    ASSERT_EQ(Live.frees()[I].Time, Offline.frees()[I].Time);
  }
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Metadata
//===----------------------------------------------------------------------===//

TEST(TraceIoTest, InfoAndRegistryMatchTheRecordedRun) {
  std::string Path = tempPath("info.orpt");
  trace::CountingSink Counter;
  auto Session = recordRun("list-traversal", Path, nullptr, &Counter);

  traceio::TraceReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();
  const traceio::TraceInfo &Info = Reader.info();
  EXPECT_EQ(Info.Version, traceio::kFormatVersionV2);
  EXPECT_EQ(Info.AllocPolicy,
            static_cast<uint8_t>(memsim::AllocPolicy::FirstFit));
  EXPECT_EQ(Info.Seed, 7u);
  EXPECT_EQ(Info.TotalEvents,
            Counter.accesses() + Counter.allocs() + Counter.frees());

  const trace::InstructionRegistry &Live = Session->registry();
  ASSERT_EQ(Info.NumInstructions, Live.numInstructions());
  ASSERT_EQ(Info.NumAllocSites, Live.numAllocSites());
  for (size_t I = 0; I != Live.numInstructions(); ++I) {
    EXPECT_EQ(Reader.instructions()[I].Name,
              Live.instruction(static_cast<trace::InstrId>(I)).Name);
    EXPECT_EQ(Reader.instructions()[I].Kind,
              Live.instruction(static_cast<trace::InstrId>(I)).Kind);
  }
  for (size_t I = 0; I != Live.numAllocSites(); ++I) {
    EXPECT_EQ(Reader.allocSites()[I].Name,
              Live.allocSite(static_cast<trace::AllocSiteId>(I)).Name);
    EXPECT_EQ(Reader.allocSites()[I].TypeName,
              Live.allocSite(static_cast<trace::AllocSiteId>(I)).TypeName);
  }
  std::remove(Path.c_str());
}

TEST(TraceIoTest, FileBytesEqualsTheOnDiskSize) {
  // open() sizes its image from the file length and reads it in one
  // pass; the image must hold exactly the file, no more and no less.
  std::string Path = tempPath("filebytes.orpt");
  recordRun("164.gzip-a", Path);
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  ASSERT_NE(File, nullptr);
  ASSERT_EQ(std::fseek(File, 0, SEEK_END), 0);
  long OnDisk = std::ftell(File);
  std::fclose(File);
  ASSERT_GT(OnDisk, 64 * 1024) << "trace too small to span read chunks";

  traceio::TraceReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();
  EXPECT_EQ(Reader.info().FileBytes, static_cast<uint64_t>(OnDisk));
  EXPECT_TRUE(Reader.forEachEvent([](const traceio::TraceEvent &) {}));
  std::remove(Path.c_str());

  traceio::TraceReader Missing;
  EXPECT_FALSE(Missing.open(Path));
  EXPECT_EQ(Missing.error(), Path + ": cannot open file");
}

TEST(TraceIoTest, EmptyTraceRoundTrips) {
  std::string Path = tempPath("empty.orpt");
  {
    core::ProfilingSession Session;
    traceio::TraceWriter Writer(Path, Session.registry(),
                                memsim::AllocPolicy::FirstFit, 0);
    ASSERT_TRUE(Writer.ok()) << Writer.error();
    Session.addRawSink(&Writer);
    Session.finish(); // no workload: zero events
    EXPECT_TRUE(Writer.close()) << Writer.error();
    EXPECT_EQ(Writer.eventsWritten(), 0u);
  }
  traceio::TraceReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();
  EXPECT_EQ(Reader.info().TotalEvents, 0u);
  EXPECT_EQ(Reader.info().NumBlocks, 0u);
  uint64_t Seen = 0;
  EXPECT_TRUE(
      Reader.forEachEvent([&](const traceio::TraceEvent &) { ++Seen; }));
  EXPECT_EQ(Seen, 0u);

  session::ProfileSession Session("empty", session::recordedConfig(Reader));
  EXPECT_TRUE(Session.replayFrom(Reader)) << Session.error();
  EXPECT_EQ(Session.eventsInjected(), 0u);
  std::remove(Path.c_str());
}

TEST(TraceIoTest, WriterRejectsAnyOtherFormatVersion) {
  // The columnar encoding is the only one; the writer refuses to start
  // a file in any other, before it creates the file.
  trace::InstructionRegistry Registry;
  std::string Path = tempPath("writer_version1.orpt");
  std::remove(Path.c_str());
  traceio::TraceWriter Writer(Path, Registry, memsim::AllocPolicy::FirstFit,
                              0, traceio::TraceWriter::kDefaultBlockBytes,
                              /*FormatVersion=*/1);
  EXPECT_FALSE(Writer.ok());
  EXPECT_EQ(Writer.error(), "unsupported format version 1");
  EXPECT_FALSE(Writer.close());
  EXPECT_FALSE(std::ifstream(Path).good());
}

TEST(TraceIoTest, WriterReportsUnwritablePath) {
  trace::InstructionRegistry Registry;
  traceio::TraceWriter Writer("/nonexistent-dir/trace.orpt", Registry,
                              memsim::AllocPolicy::FirstFit, 0);
  EXPECT_FALSE(Writer.ok());
  EXPECT_NE(Writer.error().find("cannot open"), std::string::npos);
  EXPECT_FALSE(Writer.close());
}

//===----------------------------------------------------------------------===//
// Corruption and truncation are rejected loudly
//===----------------------------------------------------------------------===//

class TraceIoCorruptionTest : public testing::Test {
protected:
  void SetUp() override {
    Path = tempPath("corrupt.orpt");
    recordRun("list-traversal", Path);
    Good = readFile(Path);
    ASSERT_GT(Good.size(), traceio::kHeaderSize + 64);
    std::remove(Path.c_str());
  }

  /// Expects openImage (or the event walk) to fail with \p Needle in
  /// the error message.
  void expectRejected(std::vector<uint8_t> Image,
                      const std::string &Needle) {
    traceio::TraceReader Reader;
    bool Ok = Reader.openImage(std::move(Image), "corrupt.orpt");
    if (Ok)
      Ok = Reader.forEachEvent([](const traceio::TraceEvent &) {});
    EXPECT_FALSE(Ok);
    EXPECT_NE(Reader.error().find(Needle), std::string::npos)
        << "error was: " << Reader.error();
  }

  std::string Path;
  std::vector<uint8_t> Good;
};

TEST_F(TraceIoCorruptionTest, IntactImageIsAccepted) {
  traceio::TraceReader Reader;
  ASSERT_TRUE(Reader.openImage(Good, "good.orpt")) << Reader.error();
  EXPECT_TRUE(Reader.forEachEvent([](const traceio::TraceEvent &) {}));
}

TEST_F(TraceIoCorruptionTest, NotATraceFile) {
  expectRejected({'n', 'o', 'p', 'e'}, "truncated file");
  std::vector<uint8_t> Bad = Good;
  Bad[0] = 'X';
  expectRejected(std::move(Bad), "bad magic");
}

TEST_F(TraceIoCorruptionTest, TruncationsAreRejected) {
  for (size_t Keep :
       {size_t(10), traceio::kHeaderSize - 1, traceio::kHeaderSize + 3,
        Good.size() / 2, Good.size() - 1}) {
    std::vector<uint8_t> Bad(Good.begin(), Good.begin() + Keep);
    traceio::TraceReader Reader;
    bool Ok = Reader.openImage(std::move(Bad), "truncated.orpt");
    if (Ok)
      Ok = Reader.forEachEvent([](const traceio::TraceEvent &) {});
    EXPECT_FALSE(Ok) << "prefix of " << Keep << " bytes was accepted";
    EXPECT_FALSE(Reader.error().empty());
  }
}

TEST_F(TraceIoCorruptionTest, FlippedHeaderByteIsRejected) {
  // The seed field, and the version byte: the CRC is checked before any
  // field is read, so a damaged version reads as damage, not as a
  // version this build lacks.
  for (size_t At : {size_t(8), size_t(4)}) {
    std::vector<uint8_t> Bad = Good;
    Bad[At] ^= 0x40;
    expectRejected(std::move(Bad), "header checksum mismatch");
  }
}

TEST_F(TraceIoCorruptionTest, FlippedBlockPayloadByteIsRejected) {
  // Well inside the first event block's payload.
  std::vector<uint8_t> Bad = Good;
  Bad[traceio::kHeaderSize + 32] ^= 0x01;
  expectRejected(std::move(Bad), "checksum mismatch");
}

TEST_F(TraceIoCorruptionTest, BlockErrorsNameBlockIndexAndByteOffset) {
  // Pins the structured error format "block <index> at byte <offset>"
  // that tooling (and humans with hexdump) navigate by. Payloads are
  // unframed, so block 0's starts right after the fixed header; later
  // offsets come from the reader's own accounting.
  traceio::TraceReader Intact;
  ASSERT_TRUE(Intact.openImage(Good, "good.orpt")) << Intact.error();
  ASSERT_GT(Intact.numEventBlocks(), 0u);
  uint64_t Block0Offset = Intact.rawBlock(0).FileOffset;
  EXPECT_EQ(Block0Offset, traceio::kHeaderSize);

  std::vector<uint8_t> Bad = Good;
  Bad[Block0Offset + 8] ^= 0x01;
  expectRejected(Bad, "block 0 at byte " + std::to_string(Block0Offset) +
                          ": checksum mismatch");

  // A later block reports its own index and offset, not block 0's.
  if (Intact.numEventBlocks() > 1) {
    uint64_t Block1Offset = Intact.rawBlock(1).FileOffset;
    std::vector<uint8_t> Bad1 = Good;
    Bad1[Block1Offset + 8] ^= 0x01;
    expectRejected(std::move(Bad1),
                   "block 1 at byte " + std::to_string(Block1Offset));
  }
}

TEST_F(TraceIoCorruptionTest, UnsupportedVersionIsRejected) {
  // Version 1 (the retired interleaved encoding) and version 3 are
  // refused by openImage() and by open() on disk alike.
  std::string BadPath = tempPath("unsupported_version.orpt");
  for (uint8_t Version : {uint8_t(1), uint8_t(3)}) {
    std::vector<uint8_t> Bad = Good;
    Bad[4] = Version;
    resealHeader(Bad); // So only the version check can fire.
    const std::string Want =
        "unsupported format version " + std::to_string(Version);
    writeFile(BadPath, Bad);
    expectRejected(std::move(Bad), Want);
    traceio::TraceReader OnDisk;
    EXPECT_FALSE(OnDisk.open(BadPath));
    EXPECT_NE(OnDisk.error().find(Want), std::string::npos)
        << "error was: " << OnDisk.error();
  }
  std::remove(BadPath.c_str());
}

TEST_F(TraceIoCorruptionTest, UnfinalizedTraceIsRejected) {
  std::vector<uint8_t> Bad = Good;
  patchHeader(Bad, 16, 0); // registry offset 0 = writer never close()d
  expectRejected(std::move(Bad), "unfinalized trace");
}

TEST_F(TraceIoCorruptionTest, OverlongVarIntInEventPayloadIsRejected) {
  // Re-encode the first id-column entry as a non-minimal (overlong)
  // form — same value, one byte wider — grow the id column's length to
  // match, and re-seal block 0's table entry and the header so only the
  // varint hardening can fire.
  traceio::TraceReader Intact;
  ASSERT_TRUE(Intact.openImage(Good, "good.orpt")) << Intact.error();
  const traceio::TraceReader::RawBlock Raw = Intact.rawBlock(0);
  const std::vector<uint8_t> Old(Raw.Payload, Raw.Payload + Raw.PayloadLen);

  // Skip the kind column, then read the id column's length and its
  // first entry.
  size_t Pos = 0;
  uint64_t KindLen = 0, IdLen = 0, FirstId = 0;
  ASSERT_TRUE(tryDecodeULEB128(Old.data(), Old.size(), Pos, KindLen));
  Pos += KindLen;
  const size_t IdHeader = Pos;
  ASSERT_TRUE(tryDecodeULEB128(Old.data(), Old.size(), Pos, IdLen));
  ASSERT_GT(IdLen, 0u);
  const size_t IdStart = Pos;
  ASSERT_TRUE(tryDecodeULEB128(Old.data(), Old.size(), Pos, FirstId));

  std::vector<uint8_t> Payload(Old.begin(), Old.begin() + IdHeader);
  encodeULEB128(IdLen + 1, Payload);
  std::vector<uint8_t> Overlong;
  encodeULEB128(FirstId, Overlong);
  Overlong.back() |= 0x80;
  Overlong.push_back(0x00);
  ASSERT_EQ(Overlong.size(), Pos - IdStart + 1);
  Payload.insert(Payload.end(), Overlong.begin(), Overlong.end());
  Payload.insert(Payload.end(), Old.begin() + Pos, Old.end());

  expectRejected(withBlockPayload(Good, 0, Payload), "overlong");
}

TEST_F(TraceIoCorruptionTest, HeaderFlagsAreChecked) {
  // Every finalized trace carries exactly the registry and block-table
  // bits; any other bit is rejected, not ignored.
  ASSERT_EQ(Good[5], traceio::kFlagsFinalized);
  for (uint8_t Bit = 0x04; Bit != 0; Bit <<= 1) {
    std::vector<uint8_t> Bad = Good;
    patchFlags(Bad, traceio::kFlagsFinalized | Bit);
    expectRejected(std::move(Bad),
                   "unknown header flags " + std::to_string(Good[5] | Bit));
  }
  std::vector<uint8_t> NoTable = Good;
  patchFlags(NoTable, traceio::kFlagHasRegistry);
  expectRejected(std::move(NoTable), "no block table: recorded by an older "
                                     "writer; re-record it");
  std::vector<uint8_t> NoRegistry = Good;
  patchFlags(NoRegistry, traceio::kFlagBlockTable);
  expectRejected(std::move(NoRegistry), "registry flag clear");
}

TEST_F(TraceIoCorruptionTest, OlderWriterLayoutIsRejected) {
  // The layout older writers produced — every payload framed in line
  // (0x01 | uleb len | uleb events | u32 CRC), no block table, flags
  // 0x01 — is rejected by its header, never misparsed.
  std::vector<uint8_t> Old(Good.begin(), Good.begin() + traceio::kHeaderSize);
  traceio::TraceReader Intact;
  ASSERT_TRUE(Intact.openImage(Good, "good.orpt")) << Intact.error();
  for (size_t B = 0; B != Intact.numEventBlocks(); ++B) {
    traceio::TraceReader::RawBlock Raw = Intact.rawBlock(B);
    Old.push_back(0x01);
    encodeULEB128(Raw.PayloadLen, Old);
    encodeULEB128(Raw.EventCount, Old);
    appendLE32(Raw.Crc, Old);
    Old.insert(Old.end(), Raw.Payload, Raw.Payload + Raw.PayloadLen);
  }
  const size_t RegistryOffset = readLE64(Good.data() + 16);
  const uint64_t OldOffset = Old.size();
  Old.insert(Old.end(), Good.begin() + RegistryOffset,
             Good.begin() + blockTableOffset(Good));
  Old.push_back(traceio::kEndMarker);
  patchHeader(Old, 16, OldOffset);
  patchFlags(Old, traceio::kFlagHasRegistry);
  expectRejected(std::move(Old), "no block table: recorded by an older "
                                 "writer; re-record it");
}

TEST_F(TraceIoCorruptionTest, BlockCountBeyondTheTableIsRejected) {
  // A count the section's bytes cannot hold is rejected before the
  // reader reserves room for it.
  for (uint64_t Count : {uint64_t(1) << 40, ~uint64_t(0)}) {
    std::vector<uint8_t> Bad =
        withTable(Good, encodeTable(tableOf(Good), Count));
    traceio::TraceReader Reader;
    bool Ok = true;
    EXPECT_NO_THROW(Ok = Reader.openImage(std::move(Bad), "corrupt.orpt"));
    EXPECT_FALSE(Ok);
    EXPECT_NE(Reader.error().find("block table: declares " +
                                  std::to_string(Count) + " blocks"),
              std::string::npos)
        << "error was: " << Reader.error();
  }
}

TEST_F(TraceIoCorruptionTest, BlockTableChecksumMismatchIsRejected) {
  std::vector<uint8_t> Bad = Good;
  Bad[blockTableOffset(Bad) + 6] ^= 0x01; // Inside the table payload.
  expectRejected(std::move(Bad), "block table: checksum mismatch");
}

TEST_F(TraceIoCorruptionTest, BlockLengthsMustTileTheEventSection) {
  const std::vector<TableEntry> Entries = tableOf(Good);
  ASSERT_FALSE(Entries.empty());
  const uint64_t RegistryOffset = readLE64(Good.data() + 16);

  std::vector<TableEntry> Short = Entries;
  --Short.back().PayloadLen;
  expectRejected(withTable(Good, encodeTable(Short, Short.size())),
                 "block table: payloads end at byte " +
                     std::to_string(RegistryOffset - 1));

  std::vector<TableEntry> Long = Entries;
  ++Long.back().PayloadLen;
  expectRejected(withTable(Good, encodeTable(Long, Long.size())),
                 "payload extends past the registry section");

  // Lengths whose sum wraps around 2^64 back onto the registry offset
  // do not tile: the first alone runs past the event section.
  std::vector<TableEntry> Wrap = {
      {~uint64_t(0), Entries[0].EventCount, 0},
      {RegistryOffset - traceio::kHeaderSize + 1, 0, 0}};
  for (size_t B = 1; B < Entries.size(); ++B)
    Wrap[0].EventCount += Entries[B].EventCount;
  expectRejected(withTable(Good, encodeTable(Wrap, Wrap.size())),
                 "block 0 at byte 36: payload extends past the registry "
                 "section");

  std::vector<uint8_t> Trailing = encodeTable(Entries, Entries.size());
  Trailing.push_back(0x00);
  expectRejected(withTable(Good, Trailing), "block table: trailing bytes");
}

TEST_F(TraceIoCorruptionTest, BlockEventSumMustMatchTheHeader) {
  const uint64_t Total = readLE64(Good.data() + 24);
  std::vector<TableEntry> More = tableOf(Good);
  ++More[0].EventCount;
  expectRejected(withTable(Good, encodeTable(More, More.size())),
                 "event count mismatch: header declares " +
                     std::to_string(Total));
  std::vector<TableEntry> Fewer = tableOf(Good);
  --Fewer.back().EventCount;
  expectRejected(withTable(Good, encodeTable(Fewer, Fewer.size())),
                 "event count mismatch: header declares " +
                     std::to_string(Total) + ", blocks hold " +
                     std::to_string(Total - 1));
}

TEST_F(TraceIoCorruptionTest, TrailingGarbageIsRejected) {
  std::vector<uint8_t> Bad = Good;
  Bad.push_back(0xAB);
  expectRejected(std::move(Bad), "trailing garbage");
}

TEST_F(TraceIoCorruptionTest, OpenOnDiskReportsTheFileName) {
  std::string BadPath = tempPath("ondisk_corrupt.orpt");
  std::vector<uint8_t> Bad = Good;
  Bad[traceio::kHeaderSize + 32] ^= 0x01;
  writeFile(BadPath, Bad);
  traceio::TraceReader Reader;
  bool Ok = Reader.open(BadPath);
  if (Ok)
    Ok = Reader.forEachEvent([](const traceio::TraceEvent &) {});
  EXPECT_FALSE(Ok);
  EXPECT_NE(Reader.error().find("ondisk_corrupt.orpt"), std::string::npos);
  std::remove(BadPath.c_str());
}

//===----------------------------------------------------------------------===//
// open() maps regular files and reads everything else; either way it
// judges a file exactly as openImage() judges the same bytes
//===----------------------------------------------------------------------===//

static_assert(!std::is_copy_constructible_v<traceio::TraceReader> &&
                  !std::is_copy_assignable_v<traceio::TraceReader>,
              "TraceReader owns its image and hands out pointers into it");

namespace {

/// Records a small multi-block v2 trace through the real writer.
std::vector<uint8_t> recordSmallTrace(uint64_t Accesses = 40) {
  std::string Path = tempPath("small.orpt");
  trace::InstructionRegistry Registry;
  trace::InstrId Load =
      Registry.addInstruction("mapped: load", trace::AccessKind::Load);
  trace::InstrId Store =
      Registry.addInstruction("mapped: store", trace::AccessKind::Store);
  trace::AllocSiteId Site = Registry.addAllocSite("mapped: alloc", "struct m");
  {
    traceio::TraceWriter Writer(Path, Registry, memsim::AllocPolicy::FirstFit,
                                /*Seed=*/5, /*BlockBytes=*/128);
    uint64_t Time = 0;
    Writer.onAlloc({Site, /*Addr=*/0x2000, /*Size=*/64, ++Time,
                    /*IsStatic=*/false});
    for (uint64_t I = 0; I != Accesses; ++I)
      Writer.onAccess({(I & 1) ? Store : Load, 0x2000 + (I % 8) * 8,
                       /*Size=*/8, /*IsStore=*/(I & 1) != 0, ++Time});
    Writer.onFree({0x2000, ++Time});
    EXPECT_TRUE(Writer.close()) << Writer.error();
  }
  std::vector<uint8_t> Bytes = readFile(Path);
  std::remove(Path.c_str());
  return Bytes;
}

/// Everything a reader reports about an image: verdict, error, header
/// info and, when it parsed, the decoded events and the decode verdict.
std::vector<std::string> readerOutcome(traceio::TraceReader &R, bool Ok) {
  const traceio::TraceInfo &I = R.info();
  std::vector<std::string> Out = {
      Ok ? "accepted" : "rejected", R.error(),
      std::to_string(I.Version) + "/" + std::to_string(I.Flags) + "/" +
          std::to_string(I.AllocPolicy) + "/" + std::to_string(I.Seed) +
          "/" + std::to_string(I.TotalEvents) + "/" +
          std::to_string(I.NumBlocks) + "/" + std::to_string(I.FileBytes) +
          "/" + std::to_string(I.NumInstructions) + "/" +
          std::to_string(I.NumAllocSites)};
  if (!Ok)
    return Out;
  bool Decoded = R.forEachEvent([&](const traceio::TraceEvent &E) {
    Out.push_back(std::to_string(static_cast<int>(E.K)) + ":" +
                  std::to_string(E.InstrOrSite) + ":" +
                  std::to_string(E.Addr) + ":" + std::to_string(E.Size) +
                  ":" + std::to_string(E.Time) + ":" +
                  std::to_string(E.IsStore) + std::to_string(E.IsStatic));
  });
  Out.push_back(Decoded ? "decoded" : "decode failed: " + R.error());
  return Out;
}

/// Writes \p Bytes to \p Path and expects open(Path) to report exactly
/// what openImage(Bytes, Path) reports.
void expectFileMatchesImage(const std::vector<uint8_t> &Bytes,
                            const std::string &Path, const std::string &What) {
  writeFile(Path, Bytes);
  traceio::TraceReader FromFile, FromImage;
  bool FileOk = FromFile.open(Path);
  bool ImageOk = FromImage.openImage(Bytes, Path);
  EXPECT_EQ(readerOutcome(FromFile, FileOk), readerOutcome(FromImage, ImageOk))
      << What;
  std::remove(Path.c_str());
}

} // namespace

TEST(TraceIoMappedOpenTest, EveryTruncationAndFlipMatchesOpenImage) {
  std::vector<uint8_t> Good = recordSmallTrace();
  ASSERT_GT(Good.size(), traceio::kHeaderSize + 64);
  {
    traceio::TraceReader R;
    ASSERT_TRUE(R.openImage(Good, "small.orpt")) << R.error();
    ASSERT_GE(R.numEventBlocks(), 2u) << "want a multi-block trace";
  }
  std::string Path = tempPath("mapped_sweep.orpt");
  expectFileMatchesImage(Good, Path, "intact");
  // Every proper prefix, the empty file included.
  for (size_t Keep = 0; Keep != Good.size(); ++Keep)
    expectFileMatchesImage(
        std::vector<uint8_t>(Good.begin(), Good.begin() + Keep), Path,
        "prefix of " + std::to_string(Keep) + " bytes");
  // One flipped bit at every byte, plus trailing garbage.
  for (size_t At = 0; At != Good.size(); ++At) {
    std::vector<uint8_t> Bad = Good;
    Bad[At] ^= static_cast<uint8_t>(1u << (At % 8));
    expectFileMatchesImage(Bad, Path, "bit flip at byte " + std::to_string(At));
  }
  std::vector<uint8_t> Longer = Good;
  Longer.push_back(0xAB);
  expectFileMatchesImage(Longer, Path, "trailing garbage");
}

TEST(TraceIoMappedOpenTest, FifoIsReadThroughTheChunkedPath) {
  // A FIFO cannot be mapped; open() must read it in chunks and still
  // match openImage(). The trace spans several 64 KiB read chunks.
  std::vector<uint8_t> Bytes = recordSmallTrace(/*Accesses=*/60000);
  ASSERT_GT(Bytes.size(), 3u * 64 * 1024);
  std::string Fifo = tempPath("mapped.fifo");
  std::remove(Fifo.c_str());
  ASSERT_EQ(::mkfifo(Fifo.c_str(), 0600), 0);
  traceio::TraceReader FromFifo;
  bool FifoOk = false;
  {
    support::ScopedThread Feeder([&] { writeFile(Fifo, Bytes); });
    FifoOk = FromFifo.open(Fifo);
  }
  std::remove(Fifo.c_str());
  traceio::TraceReader FromImage;
  bool ImageOk = FromImage.openImage(Bytes, Fifo);
  ASSERT_TRUE(FifoOk) << FromFifo.error();
  EXPECT_EQ(readerOutcome(FromFifo, FifoOk), readerOutcome(FromImage, ImageOk));
}

TEST(TraceIoMappedOpenTest, UnreadablePathsKeepTheirMessages) {
  std::string Empty = tempPath("mapped_empty.orpt");
  writeFile(Empty, {});
  traceio::TraceReader R;
  EXPECT_FALSE(R.open(Empty));
  EXPECT_EQ(R.error(),
            Empty + ": truncated file: shorter than the fixed header");
  std::remove(Empty.c_str());

  // A directory opens but cannot be read.
  std::string Dir = tempPath("mapped_dir");
  ::rmdir(Dir.c_str());
  ASSERT_EQ(::mkdir(Dir.c_str(), 0700), 0);
  EXPECT_FALSE(R.open(Dir));
  EXPECT_EQ(R.error(), Dir + ": read error");
  ::rmdir(Dir.c_str());

  std::string Missing = tempPath("mapped_missing.orpt");
  std::remove(Missing.c_str());
  ASSERT_TRUE(R.openImage(recordSmallTrace(), "good.orpt")) << R.error();
  EXPECT_FALSE(R.open(Missing));
  EXPECT_EQ(R.error(), Missing + ": cannot open file");
  // A failed open leaves nothing of the previous one behind.
  EXPECT_EQ(R.numEventBlocks(), 0u);
  EXPECT_EQ(R.info().FileBytes, 0u);
}

TEST(TraceIoMappedOpenTest, RawBlocksStayValidUntilReopen) {
  // rawBlock() points into the mapping. The mapping outlives the file's
  // directory entry, so the payloads stay readable (and decodable) until
  // the reader is reopened or destroyed.
  std::vector<uint8_t> Bytes = recordSmallTrace();
  std::string Path = tempPath("mapped_raw.orpt");
  writeFile(Path, Bytes);
  traceio::TraceReader R;
  ASSERT_TRUE(R.open(Path)) << R.error();
  std::remove(Path.c_str());
  ASSERT_GT(R.numEventBlocks(), 1u);
  for (size_t B = 0; B != R.numEventBlocks(); ++B) {
    traceio::TraceReader::RawBlock Raw = R.rawBlock(B);
    ASSERT_LE(Raw.FileOffset + Raw.PayloadLen, Bytes.size());
    EXPECT_TRUE(std::equal(Raw.Payload, Raw.Payload + Raw.PayloadLen,
                           Bytes.begin() + Raw.FileOffset))
        << "block " << B;
    EXPECT_EQ(crc32(Raw.Payload, Raw.PayloadLen), Raw.Crc) << "block " << B;
  }
  std::vector<traceio::TraceEvent> Events;
  EXPECT_TRUE(R.readAllEvents(Events)) << R.error();
  EXPECT_EQ(Events.size(), R.info().TotalEvents);

  // Reopening swaps in the new image: its blocks, not the old ones.
  std::vector<uint8_t> Other = recordSmallTrace(/*Accesses=*/400);
  ASSERT_TRUE(R.openImage(Other, "other.orpt")) << R.error();
  traceio::TraceReader::RawBlock First = R.rawBlock(0);
  EXPECT_TRUE(std::equal(First.Payload, First.Payload + First.PayloadLen,
                         Other.begin() + First.FileOffset));
}

namespace {

/// The process's read-syscall count (`syscr` in /proc/self/io), or -1
/// when the file is missing.
int64_t readSyscalls() {
  std::ifstream In("/proc/self/io");
  std::string Key;
  int64_t Value;
  while (In >> Key >> Value)
    if (Key == "syscr:")
      return Value;
  return -1;
}

/// Read syscalls one open() of \p Path makes, net of the cost of
/// sampling the counter.
int64_t readsToOpen(const std::string &Path, size_t &Blocks) {
  const int64_t Base0 = readSyscalls(), Base1 = readSyscalls();
  const int64_t Before = readSyscalls();
  traceio::TraceReader R;
  EXPECT_TRUE(R.open(Path)) << R.error();
  const int64_t After = readSyscalls();
  Blocks = R.numEventBlocks();
  return (After - Before) - (Base1 - Base0);
}

} // namespace

TEST(TraceIoMappedOpenTest, OpenMakesTheSameReadsAtAnyBlockCount) {
  // The block table sits in the trailer, so open() reads the header and
  // then the trailer, however many blocks the trace has. Counting read
  // syscalls makes that a deterministic check, not a timing.
  if (readSyscalls() < 0)
    GTEST_SKIP() << "/proc/self/io is not available";
  std::string Path = tempPath("reads.orpt");
  size_t FewBlocks = 0, ManyBlocks = 0;
  writeFile(Path, recordSmallTrace(/*Accesses=*/40));
  const int64_t FewReads = readsToOpen(Path, FewBlocks);
  writeFile(Path, recordSmallTrace(/*Accesses=*/32000));
  const int64_t ManyReads = readsToOpen(Path, ManyBlocks);
  std::remove(Path.c_str());
  ASSERT_EQ(FewBlocks, 2u);
  ASSERT_GE(ManyBlocks, 1000u);
  EXPECT_EQ(FewReads, ManyReads);
  EXPECT_EQ(ManyReads, 2) << "the header and the trailer";
}

TEST(TraceIoMappedOpenTest, OpenReadsNoPayloadByte) {
  // Overwriting every payload byte leaves the header, registry and block
  // table intact: open() still succeeds with the same blocks, and the
  // damage shows at the first decode, checksum first.
  const std::vector<uint8_t> Good = recordSmallTrace();
  traceio::TraceReader Intact;
  ASSERT_TRUE(Intact.openImage(Good, "good.orpt")) << Intact.error();
  ASSERT_GE(Intact.numEventBlocks(), 2u);
  std::vector<uint8_t> Bad = Good;
  std::fill(Bad.begin() + traceio::kHeaderSize,
            Bad.begin() + readLE64(Bad.data() + 16), uint8_t(0xA5));
  std::string Path = tempPath("overwritten.orpt");
  writeFile(Path, Bad);
  traceio::TraceReader R;
  ASSERT_TRUE(R.open(Path)) << R.error();
  std::remove(Path.c_str());
  EXPECT_EQ(R.info().NumBlocks, Intact.info().NumBlocks);
  std::vector<traceio::TraceReader::BlockStats> Want = Intact.blockStats(),
                                                 Got = R.blockStats();
  ASSERT_EQ(Got.size(), Want.size());
  for (size_t B = 0; B != Got.size(); ++B) {
    EXPECT_EQ(Got[B].EventCount, Want[B].EventCount) << "block " << B;
    EXPECT_EQ(Got[B].PayloadBytes, Want[B].PayloadBytes) << "block " << B;
  }
  EXPECT_FALSE(R.forEachEvent([](const traceio::TraceEvent &) {}));
  EXPECT_EQ(R.error(), Path + ": block 0 at byte 36: checksum mismatch "
                                "(corrupted file)");
}

namespace {

/// Resident bytes of the mapping that contains \p Addr, read from the
/// mapping's `Rss:` line in /proc/self/smaps; -1 when the file or the
/// mapping is missing.
int64_t mappingRssBytes(const void *Addr) {
  std::ifstream In("/proc/self/smaps");
  const uintptr_t At = reinterpret_cast<uintptr_t>(Addr);
  bool Inside = false;
  std::string Line;
  while (std::getline(In, Line)) {
    unsigned long long Lo, Hi, Kb;
    if (std::sscanf(Line.c_str(), "%llx-%llx ", &Lo, &Hi) == 2)
      Inside = Lo <= At && At < Hi;
    else if (Inside && std::sscanf(Line.c_str(), "Rss: %llu kB", &Kb) == 1)
      return static_cast<int64_t>(Kb * 1024);
  }
  return -1;
}

/// Records a v2 trace of pseudo-random accesses over 256 objects, with
/// 64 KiB blocks, to \p Path.
void recordLargeTrace(const std::string &Path, uint64_t Accesses) {
  trace::InstructionRegistry Registry;
  trace::InstrId Load =
      Registry.addInstruction("large: load", trace::AccessKind::Load);
  trace::InstrId Store =
      Registry.addInstruction("large: store", trace::AccessKind::Store);
  trace::AllocSiteId Site = Registry.addAllocSite("large: alloc", "struct l");
  traceio::TraceWriter Writer(Path, Registry, memsim::AllocPolicy::FirstFit,
                              /*Seed=*/11, /*BlockBytes=*/64 * 1024);
  constexpr uint64_t Base = 0x10000000, Stride = 1 << 20, Objects = 256;
  uint64_t Time = 0;
  for (uint64_t O = 0; O != Objects; ++O)
    Writer.onAlloc({Site, Base + O * Stride, /*Size=*/Stride / 4, ++Time,
                    /*IsStatic=*/false});
  uint64_t X = 0x9e3779b97f4a7c15ULL;
  for (uint64_t I = 0; I != Accesses; ++I) {
    X = X * 6364136223846793005ULL + 1442695040888963407ULL;
    uint64_t Addr = Base + ((X >> 33) % Objects) * Stride +
                    ((X >> 13) % (Stride / 4)) / 8 * 8;
    bool IsStore = (X >> 62) == 0;
    Time += 1 + (X >> 50) % 64;
    Writer.onAccess({IsStore ? Store : Load, Addr, /*Size=*/8, IsStore, Time});
  }
  for (uint64_t O = 0; O != Objects; ++O)
    Writer.onFree({Base + O * Stride, ++Time});
  EXPECT_TRUE(Writer.close()) << Writer.error();
}

} // namespace

TEST(TraceIoMappedOpenTest, FinishedWalkKeepsOnlyTheLastBlock) {
  // Handing out the last block releases every whole page before its
  // header, so a finished walk leaves only that block resident, not the
  // 256 KiB window it ends in. Pointers from earlier rawBlock() calls
  // refault with the same bytes.
  std::string Path = tempPath("mapped_tail.orpt");
  recordLargeTrace(Path, /*Accesses=*/300000);
  const std::vector<uint8_t> Bytes = readFile(Path);
  traceio::TraceReader R;
  ASSERT_TRUE(R.open(Path)) << R.error();
  std::remove(Path.c_str());
  ASSERT_GT(R.numEventBlocks(), 8u);
  const size_t Page = support::pageSize();
  const traceio::TraceReader::RawBlock Last =
      R.rawBlock(R.numEventBlocks() - 1);
  const int64_t Bound = static_cast<int64_t>(
      ((Last.FileOffset + Last.PayloadLen + Page - 1) / Page -
       Last.FileOffset / Page + 1) *
      Page);
  if (mappingRssBytes(Last.Payload) < 0)
    GTEST_SKIP() << "/proc/self/smaps does not show the trace mapping";

  uint64_t Events = 0;
  ASSERT_TRUE(R.forEachEvent([&](const traceio::TraceEvent &) { ++Events; }))
      << R.error();
  EXPECT_EQ(Events, R.info().TotalEvents);
  EXPECT_LE(mappingRssBytes(Last.Payload), Bound) << "forEachEvent";
  EXPECT_GT(mappingRssBytes(Last.Payload), 0);

  std::vector<traceio::TraceReader::RawBlock> Raw;
  for (size_t B = 0; B != R.numEventBlocks(); ++B) {
    Raw.push_back(R.rawBlock(B));
    EXPECT_EQ(crc32(Raw[B].Payload, Raw[B].PayloadLen), Raw[B].Crc) << B;
  }
  EXPECT_LE(mappingRssBytes(Last.Payload), Bound) << "rawBlock";
  for (size_t B = 0; B != Raw.size(); ++B) {
    ASSERT_LE(Raw[B].FileOffset + Raw[B].PayloadLen, Bytes.size());
    EXPECT_TRUE(std::equal(Raw[B].Payload, Raw[B].Payload + Raw[B].PayloadLen,
                           Bytes.begin() + Raw[B].FileOffset))
        << "block " << B;
  }

  // The comparison above faulted every block back in. A re-read of the
  // last block, out of order, releases only its own window: the whole
  // 256 KiB windows before it stay resident.
  constexpr uint64_t Window = 256 * 1024;
  const traceio::TraceReader::RawBlock Prev = Raw[Raw.size() - 2];
  ASSERT_EQ(Prev.FileOffset / Window, Last.FileOffset / Window)
      << "the last block must share its window with the block before it";
  const uint64_t Before = Last.FileOffset / Window * Window;
  ASSERT_GT(Before, 0u);
  const traceio::TraceReader::RawBlock Again =
      R.rawBlock(R.numEventBlocks() - 1);
  EXPECT_EQ(crc32(Again.Payload, Again.PayloadLen), Again.Crc);
  EXPECT_GE(mappingRssBytes(Last.Payload), static_cast<int64_t>(Before));
}

TEST(TraceIoMappedOpenTest, ReplayKeepsTraceResidencyBounded) {
  // A mapped trace is opened with two preads and its payload pages are
  // released behind the reader, so no walk over it keeps more than a
  // bounded window resident, however long the file.
  constexpr int64_t kBound = 1 << 20;
  std::string Path = tempPath("mapped_large.orpt");
  recordLargeTrace(Path, /*Accesses=*/1300000);
  traceio::TraceReader Image, R;
  ASSERT_TRUE(Image.openImage(readFile(Path), Path)) << Image.error();
  ASSERT_TRUE(R.open(Path)) << R.error();
  std::remove(Path.c_str());
  ASSERT_GE(R.info().FileBytes, 8u << 20);
  ASSERT_GT(R.numEventBlocks(), 100u);

  const traceio::TraceReader::RawBlock First = R.rawBlock(0);
  if (mappingRssBytes(First.Payload) < 0)
    GTEST_SKIP() << "/proc/self/smaps does not show the trace mapping";
  EXPECT_EQ(mappingRssBytes(First.Payload), 0) << "open() faulted pages in";

  int64_t Peak = 0;
  auto Sample = [&] {
    Peak = std::max(Peak, mappingRssBytes(First.Payload));
  };

  std::vector<traceio::TraceEvent> Want;
  ASSERT_TRUE(Image.readAllEvents(Want)) << Image.error();
  uint64_t Seen = 0, Mismatches = 0;
  ASSERT_TRUE(R.forEachEvent([&](const traceio::TraceEvent &E) {
    if (Seen == Want.size()) {
      ++Mismatches;
      return;
    }
    const traceio::TraceEvent &W = Want[Seen++];
    Mismatches += E.K != W.K || E.InstrOrSite != W.InstrOrSite ||
                  E.Addr != W.Addr || E.Size != W.Size || E.Time != W.Time ||
                  E.IsStore != W.IsStore || E.IsStatic != W.IsStatic;
    if (Seen % 4096 == 0)
      Sample();
  })) << R.error();
  EXPECT_EQ(Seen, Want.size());
  EXPECT_EQ(Mismatches, 0u);
  EXPECT_LE(Peak, kBound) << "forEachEvent";

  Peak = 0;
  traceio::DecodedBlock Block;
  for (size_t B = 0; B != R.numEventBlocks(); ++B) {
    ASSERT_TRUE(R.decodeBlockColumns(B, Block)) << R.error();
    Sample();
  }
  EXPECT_LE(Peak, kBound) << "decodeBlockColumns";

  session::SessionConfig Config;
  Config.EnableWhomp = false; // LEAP alone keeps the replay quick.
  session::ProfileSession FromImage("image", Config);
  ASSERT_TRUE(FromImage.replayFrom(Image)) << FromImage.error();
  Peak = 0;
  session::ProfileSession FromMapped("mapped", Config);
  ASSERT_TRUE(FromMapped.replayFrom(R, /*DecodeThreads=*/2, 0,
                                    ~static_cast<uint64_t>(0),
                                    [&](uint64_t) { Sample(); }))
      << FromMapped.error();
  EXPECT_LE(Peak, kBound) << "replayFrom";
  session::SessionArtifacts Got = FromMapped.finalize();
  session::SessionArtifacts Expected = FromImage.finalize();
  EXPECT_EQ(Got.Events, Expected.Events);
  EXPECT_FALSE(Got.Leap.empty());
  EXPECT_EQ(Got.Leap, Expected.Leap);
  EXPECT_EQ(Got.Omsg, Expected.Omsg);

  Peak = 0;
  for (size_t B = 0; B != R.numEventBlocks(); ++B) {
    traceio::TraceReader::RawBlock Raw = R.rawBlock(B);
    std::string Err;
    EXPECT_TRUE(traceio::verifyBlockChecksum(Raw.Payload, Raw.PayloadLen,
                                             Raw.Crc, B, Raw.FileOffset, Err))
        << Err;
    Sample();
  }
  EXPECT_LE(Peak, kBound) << "rawBlock walk";

  // Block 0's pages were released long ago; they refault with the same
  // bytes, so the pointer taken before the walks is still good.
  std::string Err;
  EXPECT_TRUE(traceio::verifyBlockChecksum(First.Payload, First.PayloadLen,
                                           First.Crc, 0, First.FileOffset, Err))
      << Err;
}

//===----------------------------------------------------------------------===//
// V2 columnar blocks: decode contract and error taxonomy
//===----------------------------------------------------------------------===//

namespace {

/// Hand-assembles a v2 columnar payload from pre-encoded column bytes
/// (kind | id | address | time | size, each uleb-length-prefixed).
std::vector<uint8_t> v2Payload(const std::vector<uint8_t> &Kinds,
                               const std::vector<uint8_t> &Ids,
                               const std::vector<uint8_t> &Addrs,
                               const std::vector<uint8_t> &Times,
                               const std::vector<uint8_t> &Sizes) {
  std::vector<uint8_t> P;
  for (const std::vector<uint8_t> *Col :
       {&Kinds, &Ids, &Addrs, &Times, &Sizes}) {
    encodeULEB128(Col->size(), P);
    P.insert(P.end(), Col->begin(), Col->end());
  }
  return P;
}

std::vector<uint8_t> uleb(std::initializer_list<uint64_t> Values) {
  std::vector<uint8_t> Out;
  for (uint64_t V : Values)
    encodeULEB128(V, Out);
  return Out;
}

std::vector<uint8_t> sleb(std::initializer_list<int64_t> Values) {
  std::vector<uint8_t> Out;
  for (int64_t V : Values)
    encodeSLEB128(V, Out);
  return Out;
}

/// Expects the v2 decoder to reject \p Payload with \p Needle.
void expectV2Rejected(const std::vector<uint8_t> &Payload,
                      uint64_t EventCount, const std::string &Needle) {
  traceio::DecodedBlock Block;
  std::string Err;
  EXPECT_FALSE(traceio::decodeEventBlock(Payload.data(), Payload.size(),
                                         EventCount, Block, Err));
  EXPECT_NE(Err.find(Needle), std::string::npos) << "error was: " << Err;
  EXPECT_EQ(Block.events(), 0u) << "failed decode must clear the output";
}

} // namespace

TEST(TraceIoV2BlockTest, ColumnsZipBackIntoDeliveryOrder) {
  // access(instr 5, 0x1000, 4B load, t0); alloc(site 2, 0x2000, 64B,
  // t1); free(0x2000, t2). Address/time columns carry per-block deltas.
  std::vector<uint8_t> Payload = v2Payload(
      {traceio::kOpAccess, traceio::kOpAlloc, traceio::kOpFree},
      uleb({5, 2}), sleb({0x1000, 0x1000, 0}), sleb({0, 1, 1}),
      uleb({4, 64}));
  traceio::DecodedBlock Block;
  std::string Err;
  ASSERT_TRUE(traceio::decodeEventBlock(Payload.data(), Payload.size(),
                                        /*EventCount=*/3, Block, Err))
      << Err;
  EXPECT_EQ(Block.events(), 3u);
  ASSERT_EQ(Block.Accesses.size(), 1u);
  EXPECT_EQ(Block.Accesses[0].Instr, 5u);
  EXPECT_EQ(Block.Accesses[0].Addr, 0x1000u);
  EXPECT_EQ(Block.Accesses[0].Size, 4u);
  EXPECT_FALSE(Block.Accesses[0].IsStore);
  EXPECT_EQ(Block.Accesses[0].Time, 0u);
  ASSERT_EQ(Block.Boundaries.size(), 2u);
  EXPECT_EQ(Block.Boundaries[0].AccessesBefore, 1u);
  EXPECT_EQ(Block.Boundaries[0].E.K, traceio::TraceEvent::Kind::Alloc);
  EXPECT_EQ(Block.Boundaries[0].E.InstrOrSite, 2u);
  EXPECT_EQ(Block.Boundaries[0].E.Addr, 0x2000u);
  EXPECT_EQ(Block.Boundaries[0].E.Size, 64u);
  EXPECT_EQ(Block.Boundaries[0].E.Time, 1u);
  EXPECT_EQ(Block.Boundaries[1].E.K, traceio::TraceEvent::Kind::Free);
  EXPECT_EQ(Block.Boundaries[1].E.Addr, 0x2000u);
  EXPECT_EQ(Block.Boundaries[1].E.Time, 2u);

  // The merge walk restores the original interleaved order.
  std::vector<traceio::TraceEvent::Kind> Order;
  traceio::forEachDecodedEvent(
      Block, [&](const traceio::TraceEvent &E) { Order.push_back(E.K); });
  ASSERT_EQ(Order.size(), 3u);
  EXPECT_EQ(Order[0], traceio::TraceEvent::Kind::Access);
  EXPECT_EQ(Order[1], traceio::TraceEvent::Kind::Alloc);
  EXPECT_EQ(Order[2], traceio::TraceEvent::Kind::Free);
}

TEST(TraceIoV2BlockTest, TruncatedColumnIsRejected) {
  std::vector<uint8_t> Payload = v2Payload(
      {traceio::kOpAccess}, uleb({5}), sleb({0x1000}), sleb({0}), uleb({4}));
  Payload.pop_back(); // size column now declares more bytes than remain
  expectV2Rejected(Payload, 1, "truncated size column");
}

TEST(TraceIoV2BlockTest, KindColumnCountMismatchIsRejected) {
  std::vector<uint8_t> Payload =
      v2Payload({traceio::kOpFree}, {}, sleb({0x10}), sleb({1}), {});
  expectV2Rejected(Payload, 2,
                   "column length mismatch: kind column holds 1 entries, "
                   "block declares 2");
}

TEST(TraceIoV2BlockTest, UnknownOpcodeIsRejected) {
  std::vector<uint8_t> Payload =
      v2Payload({0x07}, {}, sleb({0x10}), sleb({1}), {});
  expectV2Rejected(Payload, 1, "unknown event opcode 7");
}

TEST(TraceIoV2BlockTest, OverlongVarIntInColumnIsRejected) {
  // Non-minimal uleb in the id column: same value, one byte wider.
  std::vector<uint8_t> Payload =
      v2Payload({traceio::kOpAccess}, {0x85, 0x00}, sleb({0x1000}),
                sleb({0}), uleb({4}));
  expectV2Rejected(Payload, 1, "malformed id column (overlong varint)");
}

TEST(TraceIoV2BlockTest, TrailingBytesInColumnAreRejected) {
  std::vector<uint8_t> Ids = uleb({5});
  Ids.push_back(0x00); // one id decoded, one byte left over
  std::vector<uint8_t> Payload = v2Payload(
      {traceio::kOpAccess}, Ids, sleb({0x1000}), sleb({0}), uleb({4}));
  expectV2Rejected(Payload, 1, "trailing bytes in id column");
}

TEST(TraceIoV2BlockTest, TrailingBytesAfterColumnsAreRejected) {
  std::vector<uint8_t> Payload = v2Payload(
      {traceio::kOpAccess}, uleb({5}), sleb({0x1000}), sleb({0}), uleb({4}));
  Payload.push_back(0xAB);
  expectV2Rejected(Payload, 1, "trailing bytes in event payload");
}

//===----------------------------------------------------------------------===//
// Replay goldens: every way of feeding a recorded trace back reproduces
// the live run's profiles byte for byte
//===----------------------------------------------------------------------===//

namespace {

/// Replays \p Path through WHOMP + LEAP with \p Threads decode threads.
session::SessionArtifacts replayArtifacts(const std::string &Path,
                                          unsigned Threads) {
  traceio::TraceReader Reader;
  EXPECT_TRUE(Reader.open(Path)) << Reader.error();
  session::ProfileSession Session("replay", session::recordedConfig(Reader));
  EXPECT_TRUE(Session.replayFrom(Reader, Threads)) << Session.error();
  return Session.finalize();
}

/// Feeds \p Path to WHOMP + LEAP one still-encoded block at a time
/// through injectBlock, the way the daemon's EVENTS frames do.
session::SessionArtifacts injectArtifacts(const std::string &Path) {
  traceio::TraceReader Reader;
  EXPECT_TRUE(Reader.open(Path)) << Reader.error();
  session::ProfileSession Session("inject", session::recordedConfig(Reader));
  Session.registerProbeTables(Reader.instructions(), Reader.allocSites());
  for (size_t B = 0; B != Reader.numEventBlocks(); ++B) {
    traceio::TraceReader::RawBlock Raw = Reader.rawBlock(B);
    EXPECT_TRUE(Session.injectBlock(Raw.Payload, Raw.PayloadLen,
                                    Raw.EventCount, Raw.Crc, B,
                                    Reader.info().Version))
        << Session.error();
  }
  return Session.finalize();
}

} // namespace

class TraceIoReplayGoldenTest : public testing::Test {
protected:
  void SetUp() override {
    Path = tempPath("golden.orpt");
    // The live run profiles with WHOMP + LEAP while it records. Small
    // blocks give the schedulers real work.
    session::SessionConfig Config;
    Config.Seed = 7;
    session::ProfileSession Session("live", Config);
    traceio::TraceWriter Writer(Path, Session.core().registry(),
                                memsim::AllocPolicy::FirstFit, /*Seed=*/7,
                                /*BlockBytes=*/2048);
    ASSERT_TRUE(Writer.ok()) << Writer.error();
    Session.core().addRawSink(&Writer);
    auto W = workloads::createWorkloadByName("list-traversal");
    ASSERT_TRUE(W);
    workloads::WorkloadConfig WC;
    W->run(Session.core().memory(), Session.core().registry(), WC);
    Live = Session.finalize();
    ASSERT_TRUE(Writer.close()) << Writer.error();
    Recorded = Writer.eventsWritten();
  }

  void TearDown() override { std::remove(Path.c_str()); }

  std::string Path;
  session::SessionArtifacts Live;
  uint64_t Recorded = 0;
};

TEST_F(TraceIoReplayGoldenTest, ProfilesAreByteIdenticalAtEveryWidth) {
  ASSERT_GT(Recorded, 0u);
  ASSERT_FALSE(Live.Omsg.empty());
  ASSERT_FALSE(Live.Leap.empty());
  for (unsigned Threads : {1u, 2u, 8u}) {
    session::SessionArtifacts Replayed = replayArtifacts(Path, Threads);
    EXPECT_EQ(Replayed.Events, Recorded) << "threads=" << Threads;
    EXPECT_EQ(Replayed.Omsg, Live.Omsg) << "threads=" << Threads;
    EXPECT_EQ(Replayed.Leap, Live.Leap) << "threads=" << Threads;
  }
  session::SessionArtifacts Injected = injectArtifacts(Path);
  EXPECT_EQ(Injected.Events, Recorded) << "injectBlock";
  EXPECT_EQ(Injected.Omsg, Live.Omsg) << "injectBlock";
  EXPECT_EQ(Injected.Leap, Live.Leap) << "injectBlock";
}

namespace {

/// Steps \p Pos past the LEB128 varint it points at.
void skipVarInt(const std::vector<uint8_t> &Bytes, size_t &Pos) {
  while (Bytes[Pos++] & 0x80) {
  }
}

/// Returns \p Image with the opcode of event \p Event of block \p Block
/// replaced by an unknown one and the block's table entry re-sealed, so
/// the block passes its checksum and fails to decode part way through.
std::vector<uint8_t> withMalformedEvent(const std::vector<uint8_t> &Image,
                                        size_t Block, uint64_t Event) {
  traceio::TraceReader R;
  EXPECT_TRUE(R.openImage(Image, "intact.orpt")) << R.error();
  const traceio::TraceReader::RawBlock Raw = R.rawBlock(Block);
  size_t Pos = Raw.FileOffset;
  skipVarInt(Image, Pos); // The kind column's length: one tag per event.
  Pos += Event;
  std::vector<uint8_t> Payload(Raw.Payload, Raw.Payload + Raw.PayloadLen);
  // Opcode 7 is unassigned.
  Payload[Pos - Raw.FileOffset] |= traceio::kOpMask;
  return withBlockPayload(Image, Block, Payload);
}

} // namespace

TEST_F(TraceIoReplayGoldenTest, MalformedBlockInjectsNoneOfItsEvents) {
  // Block 1 passes its CRC but holds an unknown opcode halfway through.
  // No prefix of it may be injected: the session stops at the end of
  // block 0 through replayFrom (serial and decode-ahead) and through
  // injectBlock alike.
  traceio::TraceReader Intact;
  ASSERT_TRUE(Intact.open(Path)) << Intact.error();
  ASSERT_GT(Intact.numEventBlocks(), 2u);
  const uint64_t Boundary = Intact.rawBlock(0).EventCount;
  const uint64_t Half = Intact.rawBlock(1).EventCount / 2;
  ASSERT_GT(Half, 0u);

  traceio::TraceReader Reader;
  ASSERT_TRUE(Reader.openImage(
      withMalformedEvent(readFile(Path), /*Block=*/1, Half), Path))
      << Reader.error();
  for (unsigned Threads : {1u, 2u}) {
    session::ProfileSession Session("replay",
                                    session::recordedConfig(Reader));
    EXPECT_FALSE(Session.replayFrom(Reader, Threads));
    EXPECT_NE(Session.error().find("unknown event opcode 7"),
              std::string::npos)
        << Session.error();
    EXPECT_EQ(Session.eventsInjected(), Boundary) << "threads=" << Threads;
  }

  session::ProfileSession Session("inject", session::recordedConfig(Reader));
  Session.registerProbeTables(Reader.instructions(), Reader.allocSites());
  for (size_t B = 0; B != 2; ++B) {
    traceio::TraceReader::RawBlock Raw = Reader.rawBlock(B);
    EXPECT_EQ(Session.injectBlock(Raw.Payload, Raw.PayloadLen,
                                  Raw.EventCount, Raw.Crc, B,
                                  Reader.info().Version),
              B == 0)
        << Session.error();
  }
  EXPECT_NE(Session.error().find("block 1 at byte"), std::string::npos)
      << Session.error();
  EXPECT_EQ(Session.eventsInjected(), Boundary) << "injectBlock";
}

//===----------------------------------------------------------------------===//
// OMSG archive header (fixed-width little-endian, checksummed)
//===----------------------------------------------------------------------===//

TEST(OmsgArchiveFormatTest, HeaderIsExplicitLittleEndian) {
  core::ProfilingSession Session;
  whomp::WhompProfiler Whomp;
  Session.addConsumer(&Whomp);
  auto W = workloads::createListTraversal();
  workloads::WorkloadConfig Config;
  W->run(Session.memory(), Session.registry(), Config);
  Session.finish();

  auto Bytes = whomp::OmsgArchive::build(Whomp, &Session.omc()).serialize();
  ASSERT_GT(Bytes.size(), 9u);
  EXPECT_EQ(Bytes[0], 'O');
  EXPECT_EQ(Bytes[1], 'M');
  EXPECT_EQ(Bytes[2], 'S');
  EXPECT_EQ(Bytes[3], 'A');
  EXPECT_EQ(Bytes[4], whomp::OmsgArchive::kFormatVersion);
  // The stored CRC is little-endian by construction, independent of the
  // host: reassembling it LE must match a recomputation of the payload.
  uint32_t Stored = readLE32(Bytes.data() + 5);
  EXPECT_EQ(Stored, crc32(Bytes.data() + 9, Bytes.size() - 9));

  // And the round trip still holds on the new format.
  whomp::OmsgArchive Back;
  std::string Err;
  ASSERT_TRUE(whomp::OmsgArchive::deserialize(Bytes, Back, Err)) << Err;
  EXPECT_EQ(Back.serialize(), Bytes);
}

TEST(OmsgArchiveFormatTest, CorruptedArchiveIsRejected) {
  core::ProfilingSession Session;
  whomp::WhompProfiler Whomp;
  Session.addConsumer(&Whomp);
  auto W = workloads::createListTraversal();
  workloads::WorkloadConfig Config;
  W->run(Session.memory(), Session.registry(), Config);
  Session.finish();
  auto Bytes = whomp::OmsgArchive::build(Whomp).serialize();

  // Archive files are untrusted input: corruption must surface as a
  // structured error, never a crash.
  whomp::OmsgArchive Out;
  std::string Err;
  auto Flipped = Bytes;
  Flipped[Flipped.size() / 2] ^= 0x10;
  EXPECT_FALSE(whomp::OmsgArchive::deserialize(Flipped, Out, Err));
  EXPECT_NE(Err.find("checksum"), std::string::npos) << Err;
  auto BadMagic = Bytes;
  BadMagic[0] = 'X';
  EXPECT_FALSE(whomp::OmsgArchive::deserialize(BadMagic, Out, Err));
  EXPECT_NE(Err.find("magic"), std::string::npos) << Err;
}
