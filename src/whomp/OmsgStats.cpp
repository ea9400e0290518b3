//===- whomp/OmsgStats.cpp - Mergeable OMSG statistics -------------------===//

#include "whomp/OmsgStats.h"

#include "sequitur/Sequitur.h"
#include "support/Checksum.h"
#include "support/Endian.h"
#include "support/VarInt.h"

using namespace orp;
using namespace orp::whomp;

OmsgStats OmsgStats::fromArchive(const OmsgArchive &Archive) {
  OmsgStats Stats;
  Stats.Runs = 1;
  Stats.AccessCount = Archive.accessCount();
  Stats.ObjectCount = Archive.objects().size();
  for (const sequitur::ParsedImage &Image : Archive.grammarImages()) {
    DimensionStats Dim;
    Dim.InputLength = Image.length();
    Dim.GrammarBytes = Image.bytes().size();
    // Recompressing the stream, rather than reading the image's rules,
    // keeps the digest canonical for any image that expands to it.
    sequitur::SequiturGrammar Builder;
    for (sequitur::ImageCursor C(Image); !C.done();)
      Builder.append(C.next());
    const sequitur::GrammarImage Grammar = std::move(Builder).seal();
    Dim.RuleCount = Grammar.stats().Rules;
    Dim.BodySymbols = Grammar.stats().BodySymbols;
    for (const auto &Rule : Grammar.ruleStats(/*PrefixCap=*/0)) {
      unsigned Bucket = 0;
      for (uint64_t V = Rule.Occurrences; V > 1; V >>= 1)
        ++Bucket;
      if (Bucket >= DimensionStats::kSpectrumBuckets)
        Bucket = DimensionStats::kSpectrumBuckets - 1;
      ++Dim.HotRuleSpectrum[Bucket];
    }
    Stats.Dims.push_back(Dim);
  }
  return Stats;
}

bool OmsgStats::merge(const OmsgStats &Other, std::string &Err) {
  if (Dims.empty() && Runs == 0) {
    *this = Other;
    return true;
  }
  if (Dims.size() != Other.Dims.size()) {
    Err = "stats merge: dimension counts differ (" +
          std::to_string(Dims.size()) + " vs " +
          std::to_string(Other.Dims.size()) + ")";
    return false;
  }
  Runs += Other.Runs;
  AccessCount += Other.AccessCount;
  ObjectCount += Other.ObjectCount;
  for (size_t D = 0; D != Dims.size(); ++D) {
    Dims[D].InputLength += Other.Dims[D].InputLength;
    Dims[D].GrammarBytes += Other.Dims[D].GrammarBytes;
    Dims[D].RuleCount += Other.Dims[D].RuleCount;
    Dims[D].BodySymbols += Other.Dims[D].BodySymbols;
    for (unsigned B = 0; B != DimensionStats::kSpectrumBuckets; ++B)
      Dims[D].HotRuleSpectrum[B] += Other.Dims[D].HotRuleSpectrum[B];
  }
  return true;
}

std::vector<uint8_t> OmsgStats::serialize() const {
  std::vector<uint8_t> Out;
  Out.reserve(64);
  for (char C : kMagic)
    Out.push_back(static_cast<uint8_t>(C));
  Out.push_back(kFormatVersion);
  appendLE32(0, Out); // Payload CRC, patched below.
  encodeULEB128(Runs, Out);
  encodeULEB128(AccessCount, Out);
  encodeULEB128(ObjectCount, Out);
  encodeULEB128(Dims.size(), Out);
  for (const DimensionStats &Dim : Dims) {
    encodeULEB128(Dim.InputLength, Out);
    encodeULEB128(Dim.GrammarBytes, Out);
    encodeULEB128(Dim.RuleCount, Out);
    encodeULEB128(Dim.BodySymbols, Out);
    encodeULEB128(DimensionStats::kSpectrumBuckets, Out);
    for (uint64_t Count : Dim.HotRuleSpectrum)
      encodeULEB128(Count, Out);
  }
  uint32_t Crc = crc32(Out.data() + kHeaderSize, Out.size() - kHeaderSize);
  for (unsigned I = 0; I != 4; ++I)
    Out[5 + I] = static_cast<uint8_t>(Crc >> (8 * I));
  return Out;
}

bool OmsgStats::deserialize(const std::vector<uint8_t> &Bytes,
                            OmsgStats &Out, std::string &Err) {
  Out = OmsgStats();
  if (Bytes.size() < kHeaderSize) {
    Err = "OMSG stats: truncated header";
    return false;
  }
  for (unsigned I = 0; I != 4; ++I)
    if (Bytes[I] != static_cast<uint8_t>(kMagic[I])) {
      Err = "OMSG stats: bad magic";
      return false;
    }
  if (Bytes[4] != kFormatVersion) {
    Err = "OMSG stats: unsupported format version " +
          std::to_string(Bytes[4]);
    return false;
  }
  uint32_t Stored = readLE32(Bytes.data() + 5);
  if (crc32(Bytes.data() + kHeaderSize, Bytes.size() - kHeaderSize) !=
      Stored) {
    Err = "OMSG stats: checksum mismatch";
    return false;
  }
  size_t Pos = kHeaderSize;
  auto ReadU = [&](const char *What, uint64_t &Value) {
    VarIntStatus S =
        decodeULEB128Checked(Bytes.data(), Bytes.size(), Pos, Value);
    if (S != VarIntStatus::Ok) {
      Err = std::string("OMSG stats: ") + What + ": " +
            varIntStatusName(S) + " varint";
      return false;
    }
    return true;
  };
  uint64_t NumDims = 0;
  if (!ReadU("run count", Out.Runs) ||
      !ReadU("access count", Out.AccessCount) ||
      !ReadU("object count", Out.ObjectCount) ||
      !ReadU("dimension count", NumDims))
    return false;
  // Each dimension block needs at least 5 + kSpectrumBuckets bytes.
  if (NumDims > (Bytes.size() - Pos) /
                    (5 + DimensionStats::kSpectrumBuckets) + 1) {
    Err = "OMSG stats: dimension count exceeds remaining bytes";
    return false;
  }
  Out.Dims.reserve(NumDims);
  for (uint64_t D = 0; D != NumDims; ++D) {
    DimensionStats Dim;
    uint64_t Buckets = 0;
    if (!ReadU("input length", Dim.InputLength) ||
        !ReadU("grammar bytes", Dim.GrammarBytes) ||
        !ReadU("rule count", Dim.RuleCount) ||
        !ReadU("body symbols", Dim.BodySymbols) ||
        !ReadU("bucket count", Buckets))
      return false;
    if (Buckets != DimensionStats::kSpectrumBuckets) {
      Err = "OMSG stats: unexpected spectrum bucket count " +
            std::to_string(Buckets);
      return false;
    }
    for (unsigned B = 0; B != DimensionStats::kSpectrumBuckets; ++B)
      if (!ReadU("spectrum bucket", Dim.HotRuleSpectrum[B]))
        return false;
    Out.Dims.push_back(Dim);
  }
  if (Pos != Bytes.size()) {
    Err = "OMSG stats: trailing bytes";
    return false;
  }
  return true;
}
