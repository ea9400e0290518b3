//===- traceio/TraceReader.cpp - .orpt trace parsing ---------------------===//

#include "traceio/TraceReader.h"

#include "support/Checksum.h"
#include "support/Endian.h"
#include "support/VarInt.h"
#include "traceio/BlockCodec.h"
#include "traceio/RegistryCodec.h"

#include <cstdio>

using namespace orp;
using namespace orp::traceio;

bool TraceReader::failed(const std::string &Msg) {
  if (Err.empty())
    Err = Name + ": " + Msg;
  return false;
}

bool TraceReader::open(const std::string &Path) {
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File) {
    Name = Path;
    return failed("cannot open file");
  }
  // Size the image from the file length and read it in one pass, so a
  // large trace is neither copied on growth nor over-allocated.
  std::vector<uint8_t> Image;
  long Length = std::fseek(File, 0, SEEK_END) == 0 ? std::ftell(File) : -1;
  std::rewind(File);
  if (Length >= 0) {
    Image.resize(static_cast<size_t>(Length));
    Image.resize(std::fread(Image.data(), 1, Image.size(), File));
  } else {
    // Not seekable (a pipe): read it in chunks.
    uint8_t Buf[64 * 1024];
    size_t N;
    while ((N = std::fread(Buf, 1, sizeof(Buf), File)) > 0)
      Image.insert(Image.end(), Buf, Buf + N);
  }
  bool ReadErr = std::ferror(File) != 0;
  std::fclose(File);
  if (ReadErr) {
    Name = Path;
    return failed("read error");
  }
  return openImage(std::move(Image), Path);
}

bool TraceReader::openImage(std::vector<uint8_t> Image,
                            const std::string &FileName) {
  Name = FileName;
  Bytes = std::move(Image);
  Err.clear();
  Instrs.clear();
  Sites.clear();
  Blocks.clear();
  Info = TraceInfo{};
  Info.FileBytes = Bytes.size();

  if (!parseHeader())
    return false;
  uint64_t RegistryOffset = readLE64(Bytes.data() + 16);
  if (!indexBlocks(RegistryOffset))
    return false;
  if (!parseRegistry(RegistryOffset))
    return false;
  Info.NumBlocks = Blocks.size();
  Info.NumInstructions = Instrs.size();
  Info.NumAllocSites = Sites.size();
  return true;
}

bool TraceReader::parseHeader() {
  if (Bytes.size() < kHeaderSize)
    return failed("truncated file: shorter than the fixed header");
  for (unsigned I = 0; I != 4; ++I)
    if (Bytes[I] != kMagic[I])
      return failed("bad magic: not an .orpt trace");
  Info.Version = Bytes[4];
  if (Info.Version < kFormatVersionV1 || Info.Version > kFormatVersionV2)
    return failed("unsupported format version " +
                  std::to_string(Info.Version));
  Info.Flags = Bytes[5];
  Info.AllocPolicy = Bytes[6];
  Info.Seed = readLE64(Bytes.data() + 8);
  Info.TotalEvents = readLE64(Bytes.data() + 24);
  uint32_t Want = readLE32(Bytes.data() + 32);
  uint32_t Got = crc32(Bytes.data(), 32);
  if (Want != Got)
    return failed("header checksum mismatch (corrupted file)");
  uint64_t RegistryOffset = readLE64(Bytes.data() + 16);
  if (RegistryOffset == 0)
    return failed("unfinalized trace: the writer never close()d it");
  if (RegistryOffset < kHeaderSize || RegistryOffset >= Bytes.size())
    return failed("registry offset out of bounds (truncated file?)");
  return true;
}

bool TraceReader::indexBlocks(uint64_t RegistryOffset) {
  size_t Pos = kHeaderSize;
  uint64_t Events = 0;
  while (Pos < RegistryOffset) {
    uint64_t BlockIndex = Blocks.size();
    auto Where = [&] {
      return "block " + std::to_string(BlockIndex) + " at byte " +
             std::to_string(Pos);
    };
    if (Bytes[Pos] != kBlockEvents)
      return failed(Where() + ": unexpected section kind " +
                    std::to_string(Bytes[Pos]));
    ++Pos;
    uint64_t PayloadLen, EventCount;
    if (!tryDecodeULEB128(Bytes.data(), RegistryOffset, Pos, PayloadLen) ||
        !tryDecodeULEB128(Bytes.data(), RegistryOffset, Pos, EventCount))
      return failed(Where() + ": truncated block header");
    if (RegistryOffset - Pos < 4)
      return failed(Where() + ": truncated block header");
    uint32_t Crc = readLE32(Bytes.data() + Pos);
    Pos += 4;
    if (PayloadLen > RegistryOffset - Pos)
      return failed(Where() + ": payload extends past the registry "
                              "section (truncated file?)");
    Blocks.push_back(BlockRef{Pos, static_cast<size_t>(PayloadLen),
                              EventCount, Crc});
    Events += EventCount;
    Pos += PayloadLen;
  }
  if (Events != Info.TotalEvents)
    return failed("event count mismatch: header declares " +
                  std::to_string(Info.TotalEvents) + ", blocks hold " +
                  std::to_string(Events));
  return true;
}

bool TraceReader::parseRegistry(uint64_t Offset) {
  size_t Pos = Offset;
  const size_t Size = Bytes.size();
  if (Bytes[Pos] != kBlockRegistry)
    return failed("registry section: unexpected kind " +
                  std::to_string(Bytes[Pos]));
  ++Pos;
  uint64_t PayloadLen;
  if (!tryDecodeULEB128(Bytes.data(), Size, Pos, PayloadLen) ||
      Size - Pos < 4)
    return failed("registry section: truncated header");
  uint32_t Want = readLE32(Bytes.data() + Pos);
  Pos += 4;
  if (PayloadLen > Size - Pos)
    return failed("registry section: truncated payload");
  const size_t End = Pos + PayloadLen;
  if (crc32(Bytes.data() + Pos, PayloadLen) != Want)
    return failed("registry section: checksum mismatch (corrupted file)");
  if (End >= Size || Bytes[End] != kEndMarker)
    return failed("missing end marker (truncated file?)");
  if (End + 1 != Size)
    return failed("trailing garbage after end marker");

  std::string PayloadErr;
  if (!parseRegistryPayload(Bytes.data() + Pos, PayloadLen, Instrs, Sites,
                            PayloadErr))
    return failed("registry section at byte " + std::to_string(Pos) + ": " +
                  PayloadErr);
  return true;
}

bool TraceReader::forEachEvent(
    const std::function<void(const TraceEvent &)> &Fn) {
  for (size_t B = 0; B != Blocks.size(); ++B) {
    const BlockRef &Ref = Blocks[B];
    std::string BlockErr;
    if (!verifyBlockChecksum(Bytes.data() + Ref.PayloadPos, Ref.PayloadLen,
                             Ref.Crc, B, Ref.PayloadPos, BlockErr) ||
        !decodeEventBlockAny(Info.Version, Bytes.data() + Ref.PayloadPos,
                             Ref.PayloadLen, Ref.EventCount, Fn, BlockErr, B,
                             Ref.PayloadPos))
      return failed(BlockErr);
  }
  return true;
}

bool TraceReader::decodeBlockEvents(size_t Index,
                                    std::vector<TraceEvent> &Out) {
  Out.clear();
  const BlockRef &Ref = Blocks[Index];
  Out.reserve(Ref.EventCount);
  std::string BlockErr;
  if (!verifyBlockChecksum(Bytes.data() + Ref.PayloadPos, Ref.PayloadLen,
                           Ref.Crc, Index, Ref.PayloadPos, BlockErr) ||
      !decodeEventBlockAny(Info.Version, Bytes.data() + Ref.PayloadPos,
                           Ref.PayloadLen, Ref.EventCount,
                           [&](const TraceEvent &E) { Out.push_back(E); },
                           BlockErr, Index, Ref.PayloadPos))
    return failed(BlockErr);
  return true;
}

bool TraceReader::decodeBlockColumns(size_t Index, DecodedBlock &Out) {
  const BlockRef &Ref = Blocks[Index];
  std::string BlockErr;
  if (!verifyBlockChecksum(Bytes.data() + Ref.PayloadPos, Ref.PayloadLen,
                           Ref.Crc, Index, Ref.PayloadPos, BlockErr) ||
      !decodeEventBlockV2(Bytes.data() + Ref.PayloadPos, Ref.PayloadLen,
                          Ref.EventCount, Out, BlockErr, Index,
                          Ref.PayloadPos))
    return failed(BlockErr);
  return true;
}

TraceReader::RawBlock TraceReader::rawBlock(size_t Index) const {
  const BlockRef &Ref = Blocks[Index];
  return RawBlock{Bytes.data() + Ref.PayloadPos, Ref.PayloadLen,
                  Ref.EventCount, Ref.Crc, Ref.PayloadPos};
}

std::vector<TraceReader::BlockStats> TraceReader::blockStats() const {
  std::vector<BlockStats> Stats;
  Stats.reserve(Blocks.size());
  for (const BlockRef &Ref : Blocks)
    Stats.push_back(BlockStats{Ref.EventCount, Ref.PayloadLen});
  return Stats;
}

bool TraceReader::readAllEvents(std::vector<TraceEvent> &Out) {
  Out.clear();
  Out.reserve(Info.TotalEvents);
  return forEachEvent([&](const TraceEvent &E) { Out.push_back(E); });
}
