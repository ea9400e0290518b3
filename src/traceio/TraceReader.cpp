//===- traceio/TraceReader.cpp - .orpt trace parsing ---------------------===//

#include "traceio/TraceReader.h"

#include "support/Checksum.h"
#include "support/Endian.h"
#include "support/VarInt.h"
#include "traceio/BlockCodec.h"
#include "traceio/RegistryCodec.h"

#include <cerrno>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace orp;
using namespace orp::traceio;

bool TraceReader::failed(const std::string &Msg) {
  if (Err.empty())
    Err = Name + ": " + Msg;
  return false;
}

TraceReader::~TraceReader() {
  if (Mapping)
    ::munmap(Mapping, Size);
}

void TraceReader::reset(const std::string &FileName) {
  if (Mapping)
    ::munmap(Mapping, Size);
  Mapping = nullptr;
  Owned = std::vector<uint8_t>();
  Data = nullptr;
  Size = 0;
  Name = FileName;
  Err.clear();
  Instrs.clear();
  Sites.clear();
  Blocks.clear();
  Info = TraceInfo{};
}

bool TraceReader::open(const std::string &Path) {
  reset(Path);
  int Fd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
  if (Fd < 0)
    return failed("cannot open file");
  struct stat St;
  if (::fstat(Fd, &St) == 0 && S_ISREG(St.st_mode) && St.st_size > 0) {
    void *Map = ::mmap(nullptr, static_cast<size_t>(St.st_size), PROT_READ,
                       MAP_PRIVATE, Fd, 0);
    if (Map != MAP_FAILED) {
      ::close(Fd);
      Mapping = Map;
      Data = static_cast<const uint8_t *>(Map);
      Size = static_cast<size_t>(St.st_size);
      return parseImage();
    }
  }
  // A pipe, another non-regular input, an empty file, or a file that
  // could not be mapped: read it in chunks.
  std::vector<uint8_t> Image;
  uint8_t Buf[64 * 1024];
  bool ReadErr = false;
  for (;;) {
    ssize_t N = ::read(Fd, Buf, sizeof(Buf));
    if (N > 0) {
      Image.insert(Image.end(), Buf, Buf + N);
    } else if (N == 0 || errno != EINTR) {
      ReadErr = N < 0;
      break;
    }
  }
  ::close(Fd);
  if (ReadErr)
    return failed("read error");
  return openImage(std::move(Image), Path);
}

bool TraceReader::openImage(std::vector<uint8_t> Image,
                            const std::string &FileName) {
  reset(FileName);
  Owned = std::move(Image);
  Data = Owned.data();
  Size = Owned.size();
  return parseImage();
}

bool TraceReader::parseImage() {
  Info.FileBytes = Size;
  if (!parseHeader())
    return false;
  uint64_t RegistryOffset = readLE64(Data + 16);
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
  if (Size < kHeaderSize)
    return failed("truncated file: shorter than the fixed header");
  for (unsigned I = 0; I != 4; ++I)
    if (Data[I] != kMagic[I])
      return failed("bad magic: not an .orpt trace");
  Info.Version = Data[4];
  if (Info.Version < kFormatVersionV1 || Info.Version > kFormatVersionV2)
    return failed("unsupported format version " +
                  std::to_string(Info.Version));
  Info.Flags = Data[5];
  Info.AllocPolicy = Data[6];
  Info.Seed = readLE64(Data + 8);
  Info.TotalEvents = readLE64(Data + 24);
  uint32_t Want = readLE32(Data + 32);
  uint32_t Got = crc32(Data, 32);
  if (Want != Got)
    return failed("header checksum mismatch (corrupted file)");
  uint64_t RegistryOffset = readLE64(Data + 16);
  if (RegistryOffset == 0)
    return failed("unfinalized trace: the writer never close()d it");
  if (RegistryOffset < kHeaderSize || RegistryOffset >= Size)
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
    if (Data[Pos] != kBlockEvents)
      return failed(Where() + ": unexpected section kind " +
                    std::to_string(Data[Pos]));
    ++Pos;
    uint64_t PayloadLen, EventCount;
    if (!tryDecodeULEB128(Data, RegistryOffset, Pos, PayloadLen) ||
        !tryDecodeULEB128(Data, RegistryOffset, Pos, EventCount))
      return failed(Where() + ": truncated block header");
    if (RegistryOffset - Pos < 4)
      return failed(Where() + ": truncated block header");
    uint32_t Crc = readLE32(Data + Pos);
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
  if (Data[Pos] != kBlockRegistry)
    return failed("registry section: unexpected kind " +
                  std::to_string(Data[Pos]));
  ++Pos;
  uint64_t PayloadLen;
  if (!tryDecodeULEB128(Data, Size, Pos, PayloadLen) || Size - Pos < 4)
    return failed("registry section: truncated header");
  uint32_t Want = readLE32(Data + Pos);
  Pos += 4;
  if (PayloadLen > Size - Pos)
    return failed("registry section: truncated payload");
  const size_t End = Pos + PayloadLen;
  if (crc32(Data + Pos, PayloadLen) != Want)
    return failed("registry section: checksum mismatch (corrupted file)");
  if (End >= Size || Data[End] != kEndMarker)
    return failed("missing end marker (truncated file?)");
  if (End + 1 != Size)
    return failed("trailing garbage after end marker");

  std::string PayloadErr;
  if (!parseRegistryPayload(Data + Pos, PayloadLen, Instrs, Sites, PayloadErr))
    return failed("registry section at byte " + std::to_string(Pos) + ": " +
                  PayloadErr);
  return true;
}

bool TraceReader::forEachEvent(
    const std::function<void(const TraceEvent &)> &Fn) {
  for (size_t B = 0; B != Blocks.size(); ++B) {
    const BlockRef &Ref = Blocks[B];
    std::string BlockErr;
    if (!verifyBlockChecksum(Data + Ref.PayloadPos, Ref.PayloadLen,
                             Ref.Crc, B, Ref.PayloadPos, BlockErr) ||
        !decodeEventBlockAny(Info.Version, Data + Ref.PayloadPos,
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
  if (!verifyBlockChecksum(Data + Ref.PayloadPos, Ref.PayloadLen,
                           Ref.Crc, Index, Ref.PayloadPos, BlockErr) ||
      !decodeEventBlockAny(Info.Version, Data + Ref.PayloadPos,
                           Ref.PayloadLen, Ref.EventCount,
                           [&](const TraceEvent &E) { Out.push_back(E); },
                           BlockErr, Index, Ref.PayloadPos))
    return failed(BlockErr);
  return true;
}

bool TraceReader::decodeBlockColumns(size_t Index, DecodedBlock &Out) {
  const BlockRef &Ref = Blocks[Index];
  std::string BlockErr;
  if (!verifyBlockChecksum(Data + Ref.PayloadPos, Ref.PayloadLen,
                           Ref.Crc, Index, Ref.PayloadPos, BlockErr) ||
      !decodeEventBlockV2(Data + Ref.PayloadPos, Ref.PayloadLen,
                          Ref.EventCount, Out, BlockErr, Index,
                          Ref.PayloadPos))
    return failed(BlockErr);
  return true;
}

TraceReader::RawBlock TraceReader::rawBlock(size_t Index) const {
  const BlockRef &Ref = Blocks[Index];
  return RawBlock{Data + Ref.PayloadPos, Ref.PayloadLen,
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
