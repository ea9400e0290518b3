//===- traceio/TraceWriter.cpp - Streaming .orpt trace recorder ----------===//

#include "traceio/TraceWriter.h"

#include "support/Checksum.h"
#include "support/Endian.h"
#include "support/VarInt.h"
#include "traceio/RegistryCodec.h"

using namespace orp;
using namespace orp::traceio;

TraceWriter::TraceWriter(std::string Path,
                         const trace::InstructionRegistry &Registry,
                         memsim::AllocPolicy Policy, uint64_t Seed,
                         size_t BlockBytes, uint8_t FormatVersion)
    : Path(std::move(Path)), Registry(Registry), Policy(Policy), Seed(Seed),
      BlockBytes(BlockBytes) {
  if (FormatVersion != kFormatVersionV2) {
    fail("unsupported format version " + std::to_string(FormatVersion));
    return;
  }
  File = std::fopen(this->Path.c_str(), "wb");
  if (!File) {
    fail("cannot open '" + this->Path + "' for writing");
    return;
  }
  // Provisional header with registry offset 0: a reader that sees it
  // knows the writer died before close().
  writeBytes(encodeHeader(0).data(), kHeaderSize);
}

TraceWriter::~TraceWriter() { close(); }

void TraceWriter::fail(const std::string &Msg) {
  if (Err.empty())
    Err = Msg;
  if (File) {
    std::fclose(File);
    File = nullptr;
  }
}

void TraceWriter::writeBytes(const void *Data, size_t Size) {
  if (!File)
    return;
  if (std::fwrite(Data, 1, Size, File) != Size) {
    fail("write error on '" + Path + "'");
    return;
  }
  BytesOut += Size;
}

std::vector<uint8_t> TraceWriter::encodeHeader(uint64_t RegistryOffset) const {
  std::vector<uint8_t> Out;
  Out.reserve(kHeaderSize);
  Out.insert(Out.end(), kMagic, kMagic + 4);
  Out.push_back(kFormatVersionV2);
  Out.push_back(RegistryOffset ? kFlagsFinalized : 0);
  Out.push_back(static_cast<uint8_t>(Policy));
  Out.push_back(0); // reserved
  appendLE64(Seed, Out);
  appendLE64(RegistryOffset, Out);
  appendLE64(TotalEvents, Out);
  appendLE32(crc32(Out), Out);
  return Out;
}

size_t TraceWriter::pendingBlockBytes() const {
  return KindCol.size() + IdCol.size() + AddrCol.size() + TimeCol.size() +
         SizeCol.size();
}

void TraceWriter::flushBlock() {
  if (BlockEvents == 0) {
    PrevAddr = PrevTime = 0;
    return;
  }
  // Assemble the five length-prefixed columns into one payload
  // (TraceFormat.h column order).
  Block.reserve(pendingBlockBytes() + 20);
  for (std::vector<uint8_t> *Col :
       {&KindCol, &IdCol, &AddrCol, &TimeCol, &SizeCol}) {
    encodeULEB128(Col->size(), Block);
    Block.insert(Block.end(), Col->begin(), Col->end());
    Col->clear();
  }
  // The payload goes out bare; its length, event count and CRC wait in
  // the block table until close().
  encodeULEB128(Block.size(), BlockEntries);
  encodeULEB128(BlockEvents, BlockEntries);
  appendLE32(crc32(Block), BlockEntries);
  ++NumBlocks;
  writeBytes(Block.data(), Block.size());
  Block.clear();
  BlockEvents = 0;
  PrevAddr = PrevTime = 0;
}

void TraceWriter::maybeFlush() {
  if (pendingBlockBytes() >= BlockBytes)
    flushBlock();
}

void TraceWriter::onAccess(const trace::AccessEvent &Event) {
  if (!File || Closed)
    return;
  uint8_t Tag = kOpAccess;
  if (Event.IsStore)
    Tag |= kTagStore;
  if (Event.Size == 8)
    Tag |= kTagSize8;
  KindCol.push_back(Tag);
  encodeULEB128(Event.Instr, IdCol);
  encodeSLEB128(static_cast<int64_t>(Event.Addr - PrevAddr), AddrCol);
  encodeSLEB128(static_cast<int64_t>(Event.Time - PrevTime), TimeCol);
  if (Event.Size != 8)
    encodeULEB128(Event.Size, SizeCol);
  PrevAddr = Event.Addr;
  PrevTime = Event.Time;
  ++BlockEvents;
  ++TotalEvents;
  maybeFlush();
}

void TraceWriter::onAlloc(const trace::AllocEvent &Event) {
  if (!File || Closed)
    return;
  uint8_t Tag = kOpAlloc;
  if (Event.IsStatic)
    Tag |= kTagStatic;
  KindCol.push_back(Tag);
  encodeULEB128(Event.Site, IdCol);
  encodeSLEB128(static_cast<int64_t>(Event.Addr - PrevAddr), AddrCol);
  encodeSLEB128(static_cast<int64_t>(Event.Time - PrevTime), TimeCol);
  encodeULEB128(Event.Size, SizeCol);
  PrevAddr = Event.Addr;
  PrevTime = Event.Time;
  ++BlockEvents;
  ++TotalEvents;
  maybeFlush();
}

void TraceWriter::onFree(const trace::FreeEvent &Event) {
  if (!File || Closed)
    return;
  KindCol.push_back(kOpFree);
  encodeSLEB128(static_cast<int64_t>(Event.Addr - PrevAddr), AddrCol);
  encodeSLEB128(static_cast<int64_t>(Event.Time - PrevTime), TimeCol);
  PrevAddr = Event.Addr;
  PrevTime = Event.Time;
  ++BlockEvents;
  ++TotalEvents;
  maybeFlush();
}

void TraceWriter::onFinish() { close(); }

void TraceWriter::writeSection(uint8_t Kind,
                               const std::vector<uint8_t> &Payload) {
  std::vector<uint8_t> Frame;
  Frame.push_back(Kind);
  encodeULEB128(Payload.size(), Frame);
  appendLE32(crc32(Payload), Frame);
  writeBytes(Frame.data(), Frame.size());
  writeBytes(Payload.data(), Payload.size());
}

bool TraceWriter::close() {
  if (Closed)
    return ok();
  Closed = true;
  if (!File)
    return false;
  flushBlock();
  uint64_t RegistryOffset = BytesOut;

  std::vector<uint8_t> ProbeTables;
  appendRegistryPayload(Registry, ProbeTables);
  writeSection(kBlockRegistry, ProbeTables);

  std::vector<uint8_t> BlockTable;
  BlockTable.reserve(10 + BlockEntries.size());
  encodeULEB128(NumBlocks, BlockTable);
  BlockTable.insert(BlockTable.end(), BlockEntries.begin(),
                    BlockEntries.end());
  writeSection(kBlockTable, BlockTable);

  uint8_t End = kEndMarker;
  writeBytes(&End, 1);

  if (File && std::fseek(File, 0, SEEK_SET) != 0)
    fail("seek error on '" + Path + "'");
  if (File) {
    std::vector<uint8_t> Header = encodeHeader(RegistryOffset);
    if (std::fwrite(Header.data(), 1, kHeaderSize, File) != kHeaderSize)
      fail("write error on '" + Path + "'");
  }
  if (File) {
    if (std::fclose(File) != 0)
      fail("close error on '" + Path + "'");
    File = nullptr;
  }
  return ok();
}
