//===- traceio/TraceReader.cpp - .orpt trace parsing ---------------------===//

#include "traceio/TraceReader.h"

#include "support/Checksum.h"
#include "support/Endian.h"
#include "support/MappedArray.h"
#include "support/VarInt.h"
#include "traceio/BlockCodec.h"
#include "traceio/RegistryCodec.h"

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

/// The fewest bytes a block table entry can take: two one-byte ULEB128
/// fields and the CRC-32.
constexpr size_t kMinTableEntry = 1 + 1 + 4;

/// A CRC-checked section payload: its position in the trailer and length.
struct Section {
  size_t Pos = 0;
  size_t Len = 0;
};

/// Parses the section of kind \p Kind at \p At in \p Trailer (the bytes
/// from the registry offset to the end of the file), checks its CRC and
/// steps \p At past it. On failure sets \p Err, labelled \p What.
bool readSection(const std::vector<uint8_t> &Trailer, size_t &At,
                 uint8_t Kind, const char *What, Section &Out,
                 std::string &Err) {
  const std::string Label = What;
  if (At == Trailer.size()) {
    Err = Label + ": truncated header";
    return false;
  }
  if (Trailer[At] != Kind) {
    Err = Label + ": unexpected kind " + std::to_string(Trailer[At]);
    return false;
  }
  size_t Pos = At + 1;
  uint64_t PayloadLen = 0;
  if (!tryDecodeULEB128(Trailer.data(), Trailer.size(), Pos, PayloadLen) ||
      Trailer.size() - Pos < 4) {
    Err = Label + ": truncated header";
    return false;
  }
  const uint32_t Want = readLE32(Trailer.data() + Pos);
  Pos += 4;
  if (PayloadLen > Trailer.size() - Pos) {
    Err = Label + ": truncated payload";
    return false;
  }
  if (crc32(Trailer.data() + Pos, PayloadLen) != Want) {
    Err = Label + ": checksum mismatch (corrupted file)";
    return false;
  }
  Out = Section{Pos, static_cast<size_t>(PayloadLen)};
  At = Pos + PayloadLen;
  return true;
}

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
      // header and the trailer (registry, block table, end marker) with
      // two preads on the open file, so open() faults in no page of the
      // mapping.
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
  if (!Mapping)
    return Data + Ref.PayloadPos;
  const size_t Window = Ref.PayloadPos & ~(kReleaseWindow - 1);
  // Only the first block that starts in a window releases the windows
  // behind it, so a forward walk makes one call per window, not one per
  // read (a daemon client re-reads each block it is refused). Block 0
  // starts in window 0, so Index - 1 is valid in the window test. The
  // last block also releases the whole pages of its own window before
  // its payload: nothing follows it, so a finished walk keeps only that
  // block resident, and a re-read of it touches no other window. The
  // mapping is private and read-only: a released page refaults from the
  // page cache with the same bytes, and pointers handed out earlier stay
  // valid.
  const bool FirstInWindow =
      Window &&
      (Blocks[Index - 1].PayloadPos & ~(kReleaseWindow - 1)) != Window;
  if (Index + 1 == Blocks.size()) {
    const size_t From = FirstInWindow ? 0 : Window;
    if (Ref.PayloadPos > From)
      support::releaseWholePages(static_cast<const uint8_t *>(Mapping) + From,
                                 Ref.PayloadPos - From);
  } else if (FirstInWindow) {
    support::releaseWholePages(Mapping, Window);
  }
  return Data + Ref.PayloadPos;
}

bool TraceReader::parseImage() {
  Info.FileBytes = Size;
  uint64_t RegistryOffset;
  if (!parseHeader(RegistryOffset))
    return false;
  // Everything after the event payloads — registry, block table and end
  // marker — in one read, whatever the number of blocks.
  std::vector<uint8_t> Trailer(Size - RegistryOffset);
  if (!readAt(RegistryOffset, Trailer.size(), Trailer.data()))
    return failed("read error");
  Section Registry, Table;
  size_t At = 0;
  std::string SectionErr;
  if (!readSection(Trailer, At, kBlockRegistry, "registry section", Registry,
                   SectionErr) ||
      !readSection(Trailer, At, kBlockTable, "block table", Table,
                   SectionErr))
    return failed(SectionErr);
  if (At == Trailer.size() || Trailer[At] != kEndMarker)
    return failed("missing end marker (truncated file?)");
  if (At + 1 != Trailer.size())
    return failed("trailing garbage after end marker");

  std::string PayloadErr;
  if (!parseRegistryPayload(Trailer.data() + Registry.Pos, Registry.Len,
                            Instrs, Sites, PayloadErr))
    return failed("registry section at byte " +
                  std::to_string(RegistryOffset + Registry.Pos) + ": " +
                  PayloadErr);
  if (!parseBlockTable(Trailer.data() + Table.Pos, Table.Len,
                       RegistryOffset))
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
  // The CRC comes before any field is interpreted, so a damaged byte
  // reads as damage, not as a version or flag this build lacks.
  if (readLE32(Hdr + 32) != crc32(Hdr, 32))
    return failed("header checksum mismatch (corrupted file)");
  Info.Version = Hdr[4];
  if (Info.Version != kFormatVersionV2)
    return failed("unsupported format version " +
                  std::to_string(Info.Version));
  Info.Flags = Hdr[5];
  Info.AllocPolicy = Hdr[6];
  Info.Seed = readLE64(Hdr + 8);
  Info.TotalEvents = readLE64(Hdr + 24);
  if (Info.Flags & ~kFlagsFinalized)
    return failed("unknown header flags " + std::to_string(Info.Flags));
  RegistryOffset = readLE64(Hdr + 16);
  if (RegistryOffset == 0)
    return failed("unfinalized trace: the writer never close()d it");
  if (!(Info.Flags & kFlagBlockTable))
    return failed("no block table: recorded by an older writer; "
                  "re-record it");
  if (!(Info.Flags & kFlagHasRegistry))
    return failed("registry flag clear in a finalized header");
  if (RegistryOffset < kHeaderSize || RegistryOffset >= Size)
    return failed("registry offset out of bounds (truncated file?)");
  return true;
}

bool TraceReader::parseBlockTable(const uint8_t *Table, size_t Len,
                                  uint64_t RegistryOffset) {
  size_t At = 0;
  uint64_t Count = 0;
  if (!tryDecodeULEB128(Table, Len, At, Count))
    return failed("block table: malformed block count");
  // Bound the count by the bytes that could hold it before reserving.
  const uint64_t MaxCount = (Len - At) / kMinTableEntry;
  if (Count > MaxCount)
    return failed("block table: declares " + std::to_string(Count) +
                  " blocks, its " + std::to_string(Len - At) +
                  " entry bytes hold at most " + std::to_string(MaxCount));
  Blocks.reserve(Count);
  // Block positions are the prefix sums of the payload lengths, which
  // must tile [kHeaderSize, RegistryOffset) exactly.
  uint64_t Pos = kHeaderSize, Events = 0;
  for (uint64_t B = 0; B != Count; ++B) {
    uint64_t PayloadLen = 0, EventCount = 0;
    if (!tryDecodeULEB128(Table, Len, At, PayloadLen) ||
        !tryDecodeULEB128(Table, Len, At, EventCount) || Len - At < 4)
      return failed("block table: malformed entry " + std::to_string(B));
    const uint32_t Crc = readLE32(Table + At);
    At += 4;
    if (PayloadLen > RegistryOffset - Pos)
      return failed("block " + std::to_string(B) + " at byte " +
                    std::to_string(Pos) +
                    ": payload extends past the registry section");
    if (EventCount > Info.TotalEvents - Events)
      return failed("event count mismatch: header declares " +
                    std::to_string(Info.TotalEvents) + ", blocks 0-" +
                    std::to_string(B) + " hold more");
    Blocks.push_back(BlockRef{static_cast<size_t>(Pos),
                              static_cast<size_t>(PayloadLen), EventCount,
                              Crc});
    Pos += PayloadLen;
    Events += EventCount;
  }
  if (At != Len)
    return failed("block table: trailing bytes after " +
                  std::to_string(Count) + " entries");
  if (Pos != RegistryOffset)
    return failed("block table: payloads end at byte " + std::to_string(Pos) +
                  ", the registry section starts at byte " +
                  std::to_string(RegistryOffset));
  if (Events != Info.TotalEvents)
    return failed("event count mismatch: header declares " +
                  std::to_string(Info.TotalEvents) + ", blocks hold " +
                  std::to_string(Events));
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
  if (!decodeEventBlock(Payload, Ref.PayloadLen, Ref.EventCount, Out,
                        BlockErr, Index, Ref.PayloadPos))
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
