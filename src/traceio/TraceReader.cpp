//===- traceio/TraceReader.cpp - .orpt trace parsing ---------------------===//

#include "traceio/TraceReader.h"

#include "support/Checksum.h"
#include "support/Endian.h"
#include "support/VarInt.h"
#include "traceio/BlockCodec.h"
#include "traceio/RegistryCodec.h"

#include <algorithm>
#include <cerrno>
#include <cstring>

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

namespace {

/// Payload pages are released in whole windows of this many bytes, so
/// a forward walk keeps at most about one window (plus the block being
/// read) of a mapped trace resident.
constexpr size_t kReleaseWindow = 256 * 1024;

/// The most bytes an event block header can take: kind byte, two
/// ULEB128 fields of at most 10 bytes each, and the CRC-32.
constexpr size_t kMaxBlockHeader = 1 + 10 + 10 + 4;

/// The same for the registry section header: kind, ULEB128 length, CRC.
constexpr size_t kMaxRegistryHeader = 1 + 10 + 4;

} // namespace

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
  int File = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
  if (File < 0)
    return failed("cannot open file");
  struct stat St;
  if (::fstat(File, &St) == 0 && S_ISREG(St.st_mode) && St.st_size > 0) {
    void *Map = ::mmap(nullptr, static_cast<size_t>(St.st_size), PROT_READ,
                       MAP_PRIVATE, File, 0);
    if (Map != MAP_FAILED) {
      // The mapping backs payload reads only. The validator reads the
      // header, block index and registry with pread on the open file,
      // so open() faults in no page of the mapping.
      Mapping = Map;
      Data = static_cast<const uint8_t *>(Map);
      Size = static_cast<size_t>(St.st_size);
      Fd = File;
      bool Ok = parseImage();
      Fd = -1;
      ::close(File);
      return Ok;
    }
  }
  // A pipe, another non-regular input, an empty file, or a file that
  // could not be mapped: read it in chunks.
  std::vector<uint8_t> Image;
  uint8_t Buf[64 * 1024];
  bool ReadErr = false;
  for (;;) {
    ssize_t N = ::read(File, Buf, sizeof(Buf));
    if (N > 0) {
      Image.insert(Image.end(), Buf, Buf + N);
    } else if (N == 0 || errno != EINTR) {
      ReadErr = N < 0;
      break;
    }
  }
  ::close(File);
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

bool TraceReader::readAt(uint64_t Offset, size_t Len, uint8_t *Buf) const {
  if (Fd < 0) {
    std::memcpy(Buf, Data + Offset, Len);
    return true;
  }
  while (Len) {
    ssize_t N = ::pread(Fd, Buf, Len, static_cast<off_t>(Offset));
    if (N > 0) {
      Buf += N;
      Offset += static_cast<uint64_t>(N);
      Len -= static_cast<size_t>(N);
    } else if (N == 0 || errno != EINTR) {
      return false; // An I/O error, or the file shrank since fstat.
    }
  }
  return true;
}

const uint8_t *TraceReader::payloadOf(size_t Index) const {
  const BlockRef &Ref = Blocks[Index];
  size_t Window = Ref.PayloadPos & ~(kReleaseWindow - 1);
  // Only the first block that starts in a window releases what lies
  // behind it, so a forward walk makes one call per window, not one per
  // read (a daemon client re-reads each block it is refused). Block 0
  // starts in window 0, so Index - 1 is valid here. The mapping is
  // private and read-only: a released page refaults from the page cache
  // with the same bytes, and pointers handed out earlier stay valid.
  // Releasing is only an optimization, so a failure is ignored.
  if (Mapping && Window &&
      (Blocks[Index - 1].PayloadPos & ~(kReleaseWindow - 1)) != Window)
    (void)::madvise(Mapping, Window, MADV_DONTNEED);
  return Data + Ref.PayloadPos;
}

bool TraceReader::parseImage() {
  Info.FileBytes = Size;
  uint64_t RegistryOffset;
  if (!parseHeader(RegistryOffset))
    return false;
  if (!indexBlocks(RegistryOffset))
    return false;
  if (!parseRegistry(RegistryOffset))
    return false;
  Info.NumBlocks = Blocks.size();
  Info.NumInstructions = Instrs.size();
  Info.NumAllocSites = Sites.size();
  return true;
}

bool TraceReader::parseHeader(uint64_t &RegistryOffset) {
  if (Size < kHeaderSize)
    return failed("truncated file: shorter than the fixed header");
  uint8_t Hdr[kHeaderSize];
  if (!readAt(0, kHeaderSize, Hdr))
    return failed("read error");
  for (unsigned I = 0; I != 4; ++I)
    if (Hdr[I] != kMagic[I])
      return failed("bad magic: not an .orpt trace");
  Info.Version = Hdr[4];
  if (Info.Version < kFormatVersionV1 || Info.Version > kFormatVersionV2)
    return failed("unsupported format version " +
                  std::to_string(Info.Version));
  Info.Flags = Hdr[5];
  Info.AllocPolicy = Hdr[6];
  Info.Seed = readLE64(Hdr + 8);
  Info.TotalEvents = readLE64(Hdr + 24);
  uint32_t Want = readLE32(Hdr + 32);
  uint32_t Got = crc32(Hdr, 32);
  if (Want != Got)
    return failed("header checksum mismatch (corrupted file)");
  RegistryOffset = readLE64(Hdr + 16);
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
    // One read covers the longest header the section can still hold;
    // every field check below stays within the bytes read.
    uint8_t Hdr[kMaxBlockHeader];
    size_t HdrLen = std::min<uint64_t>(kMaxBlockHeader, RegistryOffset - Pos);
    if (!readAt(Pos, HdrLen, Hdr))
      return failed("read error");
    if (Hdr[0] != kBlockEvents)
      return failed(Where() + ": unexpected section kind " +
                    std::to_string(Hdr[0]));
    size_t At = 1;
    uint64_t PayloadLen, EventCount;
    if (!tryDecodeULEB128(Hdr, HdrLen, At, PayloadLen) ||
        !tryDecodeULEB128(Hdr, HdrLen, At, EventCount))
      return failed(Where() + ": truncated block header");
    if (HdrLen - At < 4)
      return failed(Where() + ": truncated block header");
    uint32_t Crc = readLE32(Hdr + At);
    Pos += At + 4;
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
  uint8_t Hdr[kMaxRegistryHeader];
  size_t HdrLen = std::min<uint64_t>(kMaxRegistryHeader, Size - Offset);
  if (!readAt(Offset, HdrLen, Hdr))
    return failed("read error");
  if (Hdr[0] != kBlockRegistry)
    return failed("registry section: unexpected kind " +
                  std::to_string(Hdr[0]));
  size_t At = 1;
  uint64_t PayloadLen;
  if (!tryDecodeULEB128(Hdr, HdrLen, At, PayloadLen) || HdrLen - At < 4)
    return failed("registry section: truncated header");
  uint32_t Want = readLE32(Hdr + At);
  const size_t Pos = Offset + At + 4;
  if (PayloadLen > Size - Pos)
    return failed("registry section: truncated payload");
  const size_t End = Pos + PayloadLen;
  // The payload and, when the file has it, the byte after it (the end
  // marker).
  std::vector<uint8_t> Payload(PayloadLen + (End < Size ? 1 : 0));
  if (!readAt(Pos, Payload.size(), Payload.data()))
    return failed("read error");
  if (crc32(Payload.data(), PayloadLen) != Want)
    return failed("registry section: checksum mismatch (corrupted file)");
  if (End >= Size || Payload[PayloadLen] != kEndMarker)
    return failed("missing end marker (truncated file?)");
  if (End + 1 != Size)
    return failed("trailing garbage after end marker");

  std::string PayloadErr;
  if (!parseRegistryPayload(Payload.data(), PayloadLen, Instrs, Sites,
                            PayloadErr))
    return failed("registry section at byte " + std::to_string(Pos) + ": " +
                  PayloadErr);
  return true;
}

bool TraceReader::forEachEvent(
    const std::function<void(const TraceEvent &)> &Fn) {
  DecodedBlock Block;
  for (size_t B = 0; B != Blocks.size(); ++B) {
    if (!decodeBlockColumns(B, Block))
      return false;
    forEachDecodedEvent(Block, Fn);
  }
  return true;
}

bool TraceReader::decodeBlockColumns(size_t Index, DecodedBlock &Out) {
  const BlockRef &Ref = Blocks[Index];
  const uint8_t *Payload = payloadOf(Index);
  std::string BlockErr;
  if (!verifyBlockChecksum(Payload, Ref.PayloadLen, Ref.Crc, Index,
                           Ref.PayloadPos, BlockErr)) {
    Out.clear();
    return failed(BlockErr);
  }
  if (!decodeEventBlock(Info.Version, Payload, Ref.PayloadLen,
                        Ref.EventCount, Out, BlockErr, Index,
                        Ref.PayloadPos))
    return failed(BlockErr);
  return true;
}

TraceReader::RawBlock TraceReader::rawBlock(size_t Index) const {
  const BlockRef &Ref = Blocks[Index];
  return RawBlock{payloadOf(Index), Ref.PayloadLen,
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
