//===- whomp/OmsgArchive.cpp - Detached OMSG profiles --------------------===//

#include "whomp/OmsgArchive.h"

#include "support/Checksum.h"
#include "support/Endian.h"
#include "support/Error.h"
#include "support/VarInt.h"

#include <cassert>

using namespace orp;
using namespace orp::whomp;

namespace {

const core::Dimension Dims[] = {
    core::Dimension::Instruction, core::Dimension::Group,
    core::Dimension::Object, core::Dimension::Offset};

/// Parses an image this process serialized from a grammar.
sequitur::ParsedImage parseOwnImage(std::vector<uint8_t> Image) {
  sequitur::ParsedImage Parsed;
  std::string Err;
  if (!sequitur::parseImageChecked(std::move(Image), Parsed, Err,
                                   ~uint64_t(0)))
    ORP_FATAL_ERROR(Err.c_str());
  return Parsed;
}

} // namespace

OmsgArchive OmsgArchive::build(const WhompProfiler &Profiler,
                               const omc::ObjectManager *Omc) {
  OmsgArchive Archive;
  // The parse keeps a copy of each image the seal stored.
  for (core::Dimension D : Dims)
    Archive.Images.push_back(parseOwnImage(Profiler.imageFor(D).bytes()));
  if (Omc) {
    for (const auto &Rec : Omc->records())
      Archive.Aux.push_back(ObjectAux{Rec.Group, Rec.Serial, Rec.Size,
                                      Rec.AllocTime, Rec.FreeTime});
  }
  return Archive;
}

bool OmsgArchive::operator==(const OmsgArchive &O) const {
  if (Images.size() != O.Images.size() || !(Aux == O.Aux))
    return false;
  for (size_t D = 0; D != Images.size(); ++D)
    if (!sequitur::sameExpansion(Images[D], O.Images[D]))
      return false;
  return true;
}

// Header layout: [magic 4]["version" u8][payload CRC-32, LE u32]; the
// payload (everything after the 9-byte header) is LEB128-encoded and so
// byte-order free by construction.
constexpr size_t kArchiveHeaderSize = 9;

std::vector<uint8_t> OmsgArchive::serialize() const {
  std::vector<uint8_t> Out;
  // Seed capacity past the header. Also keeps GCC 12's stringop-overflow
  // tracking from misreading the first tiny growth as an overflow.
  Out.reserve(64);
  Out.insert(Out.end(), kMagic, kMagic + 4);
  Out.push_back(kFormatVersion);
  appendLE32(0, Out); // payload checksum, patched below
  encodeULEB128(Images.size(), Out);
  for (const sequitur::ParsedImage &Image : Images) {
    encodeULEB128(Image.bytes().size(), Out);
    Out.insert(Out.end(), Image.bytes().begin(), Image.bytes().end());
  }
  encodeULEB128(Aux.size(), Out);
  for (const ObjectAux &Row : Aux) {
    encodeULEB128(Row.Group, Out);
    encodeULEB128(Row.Serial, Out);
    encodeULEB128(Row.Size, Out);
    encodeULEB128(Row.AllocTime, Out);
    // Live-forever is common and huge; store a presence flag instead.
    bool Freed = Row.FreeTime != omc::ObjectManager::kLiveForever;
    Out.push_back(Freed ? 1 : 0);
    if (Freed)
      encodeULEB128(Row.FreeTime, Out);
  }
  uint32_t Crc = crc32(Out.data() + kArchiveHeaderSize,
                       Out.size() - kArchiveHeaderSize);
  for (unsigned I = 0; I != 4; ++I)
    Out[5 + I] = static_cast<uint8_t>(Crc >> (8 * I));
  return Out;
}

bool OmsgArchive::deserialize(const std::vector<uint8_t> &Bytes,
                              OmsgArchive &Out, std::string &Err) {
  Out = OmsgArchive();
  if (Bytes.size() < kArchiveHeaderSize) {
    Err = "OMSG archive: truncated header";
    return false;
  }
  for (unsigned I = 0; I != 4; ++I)
    if (Bytes[I] != kMagic[I]) {
      Err = "OMSG archive: bad magic";
      return false;
    }
  if (Bytes[4] == 0 || Bytes[4] > kFormatVersion) {
    Err = "OMSG archive: unsupported format version " +
          std::to_string(Bytes[4]);
    return false;
  }
  uint32_t Want = readLE32(Bytes.data() + 5);
  if (crc32(Bytes.data() + kArchiveHeaderSize,
            Bytes.size() - kArchiveHeaderSize) != Want) {
    Err = "OMSG archive: checksum mismatch (corrupted image)";
    return false;
  }

  size_t Pos = kArchiveHeaderSize;
  auto ReadU = [&](const char *What, uint64_t &Value) {
    VarIntStatus S =
        decodeULEB128Checked(Bytes.data(), Bytes.size(), Pos, Value);
    if (S != VarIntStatus::Ok) {
      Err = std::string("OMSG archive: ") + What + ": " +
            varIntStatusName(S) + " varint";
      return false;
    }
    return true;
  };
  uint64_t NumGrammars = 0;
  if (!ReadU("grammar count", NumGrammars))
    return false;
  // Each grammar needs at least its length byte; larger counts cannot be
  // satisfied and would size the reserve below from hostile input.
  if (NumGrammars > Bytes.size() - Pos) {
    Err = "OMSG archive: grammar count exceeds remaining bytes";
    return false;
  }
  Out.Images.reserve(NumGrammars);
  for (uint64_t G = 0; G != NumGrammars; ++G) {
    uint64_t Len = 0;
    if (!ReadU("grammar image length", Len))
      return false;
    if (Len > Bytes.size() - Pos) {
      Err = "OMSG archive: grammar image overruns the buffer";
      return false;
    }
    sequitur::ParsedImage Image;
    if (!sequitur::parseImageChecked(
            std::vector<uint8_t>(Bytes.begin() + Pos,
                                 Bytes.begin() + Pos + Len),
            Image, Err))
      return false;
    Pos += Len;
    Out.Images.push_back(std::move(Image));
  }
  uint64_t NumAux = 0;
  if (!ReadU("object count", NumAux))
    return false;
  // Each aux row is at least 5 payload bytes.
  if (NumAux > (Bytes.size() - Pos) / 5 + 1) {
    Err = "OMSG archive: object count exceeds remaining bytes";
    return false;
  }
  Out.Aux.reserve(NumAux);
  for (uint64_t I = 0; I != NumAux; ++I) {
    ObjectAux Row;
    uint64_t Group = 0;
    if (!ReadU("object group", Group) ||
        !ReadU("object serial", Row.Serial) ||
        !ReadU("object size", Row.Size) ||
        !ReadU("object alloc time", Row.AllocTime))
      return false;
    Row.Group = static_cast<omc::GroupId>(Group);
    if (Pos >= Bytes.size()) {
      Err = "OMSG archive: truncated object row";
      return false;
    }
    uint8_t Freed = Bytes[Pos++];
    if (Freed > 1) {
      Err = "OMSG archive: bad freed flag";
      return false;
    }
    Row.FreeTime = omc::ObjectManager::kLiveForever;
    if (Freed && !ReadU("object free time", Row.FreeTime))
      return false;
    Out.Aux.push_back(Row);
  }
  if (Pos != Bytes.size()) {
    Err = "OMSG archive: trailing bytes";
    return false;
  }
  return true;
}

bool OmsgArchive::mergeSequential(
    const std::vector<const OmsgArchive *> &Segments, OmsgArchive &Out,
    std::string &Err) {
  Out = OmsgArchive();
  if (Segments.empty())
    return true;
  size_t NumDims = Segments.front()->numDimensions();
  for (const OmsgArchive *Seg : Segments)
    if (Seg->numDimensions() != NumDims) {
      Err = "OMSG merge: segment dimension counts differ (" +
            std::to_string(NumDims) + " vs " +
            std::to_string(Seg->numDimensions()) + ")";
      return false;
    }
  for (size_t D = 0; D != NumDims; ++D) {
    // Sequitur is deterministic and streaming: feeding the concatenated
    // terminal sequence through a fresh grammar yields exactly the
    // grammar the unsplit run would have built.
    sequitur::SequiturGrammar Grammar;
    for (const OmsgArchive *Seg : Segments)
      for (sequitur::ImageCursor C = Seg->cursor(D); !C.done();)
        Grammar.append(C.next());
    Out.Images.push_back(parseOwnImage(Grammar.serialize()));
  }
  // A checkpointed segment's OMC carries every record from the start of
  // the trace, so the last segment's aux table is the full table.
  Out.Aux = Segments.back()->Aux;
  return true;
}
