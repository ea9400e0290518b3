//===- leap/LeapProfileData.cpp - Serializable LEAP profiles -------------===//

#include "leap/LeapProfileData.h"

#include "support/Checksum.h"
#include "support/Endian.h"
#include "support/VarInt.h"

#include <algorithm>
#include <cassert>
#include <numeric>

using namespace orp;
using namespace orp::leap;

bool SubstreamData::operator==(const SubstreamData &O) const {
  if (TotalPoints != O.TotalPoints || Lmads.size() != O.Lmads.size())
    return false;
  for (size_t I = 0; I != Lmads.size(); ++I) {
    const lmad::Lmad &A = Lmads[I];
    const lmad::Lmad &B = O.Lmads[I];
    if (A.Dims != B.Dims || A.Count != B.Count || A.Start != B.Start ||
        A.Stride != B.Stride)
      return false;
  }
  if (Overflow.Dropped != O.Overflow.Dropped ||
      Overflow.Min != O.Overflow.Min || Overflow.Max != O.Overflow.Max ||
      Overflow.Granularity != O.Overflow.Granularity)
    return false;
  // The discard endpoints only carry information when points dropped.
  if (Overflow.Dropped != 0 &&
      (FirstDiscard != O.FirstDiscard || LastDiscard != O.LastDiscard))
    return false;
  return true;
}

bool LeapProfileData::operator==(const LeapProfileData &O) const {
  // The maps are unordered; compare by lookup, not by iteration order.
  if (MaxLmads != O.MaxLmads || Substreams.size() != O.Substreams.size() ||
      Instrs.size() != O.Instrs.size())
    return false;
  for (const auto &[Instr, Summary] : Instrs) {
    auto It = O.Instrs.find(Instr);
    if (It == O.Instrs.end() ||
        It->second.ExecCount != Summary.ExecCount ||
        It->second.StoreCount != Summary.StoreCount)
      return false;
  }
  for (const auto &[Key, Sub] : Substreams) {
    auto It = O.Substreams.find(Key);
    if (It == O.Substreams.end() || !(It->second == Sub))
      return false;
  }
  return true;
}

LeapProfileData
LeapProfileData::fromProfiler(const LeapProfiler &Profiler) {
  LeapProfileData Data;
  Data.MaxLmads = Profiler.maxLmads();
  Profiler.forEachSubstream([&](const core::VerticalKey &Key,
                                const lmad::LmadCompressor &Compressor) {
    SubstreamData Sub;
    Sub.Lmads = Compressor.lmads();
    Sub.Overflow = Compressor.overflow();
    Sub.TotalPoints = Compressor.totalPoints();
    Sub.FirstDiscard = Compressor.firstDiscard();
    Sub.LastDiscard = Compressor.lastDiscard();
    Data.Substreams.emplace(Key, std::move(Sub));
  });
  for (const auto &[Instr, Summary] : Profiler.instructions())
    Data.Instrs.emplace(Instr, Summary);
  return Data;
}

std::vector<uint8_t> LeapProfileData::serialize() const {
  std::vector<uint8_t> Out;
  Out.reserve(64);
  for (char C : kMagic)
    Out.push_back(static_cast<uint8_t>(C));
  Out.push_back(kFormatVersion);
  appendLE32(0, Out); // Payload CRC, patched below.

  // Emit in sorted key order: the byte image must not depend on the
  // unordered containers' iteration order.
  std::vector<const std::pair<const core::VerticalKey, SubstreamData> *>
      SortedSubs;
  SortedSubs.reserve(Substreams.size());
  // orp-analyze: allow(unordered-serialize): feeds the sort below.
  for (const auto &Entry : Substreams)
    SortedSubs.push_back(&Entry);
  std::sort(SortedSubs.begin(), SortedSubs.end(),
            [](const auto *A, const auto *B) { return A->first < B->first; });

  encodeULEB128(MaxLmads, Out);
  encodeULEB128(Substreams.size(), Out);
  for (const auto *Entry : SortedSubs) {
    const core::VerticalKey &Key = Entry->first;
    const SubstreamData &Sub = Entry->second;
    encodeULEB128(Key.Instr, Out);
    encodeULEB128(Key.Group, Out);
    encodeULEB128(Sub.TotalPoints, Out);
    encodeULEB128(Sub.Lmads.size(), Out);
    for (const lmad::Lmad &L : Sub.Lmads) {
      for (unsigned D = 0; D != 3; ++D) {
        encodeSLEB128(L.Start[D], Out);
        encodeSLEB128(L.Stride[D], Out);
      }
      encodeULEB128(L.Count, Out);
    }
    Out.push_back(Sub.Overflow.Dropped != 0 ? 1 : 0);
    if (Sub.Overflow.Dropped != 0) {
      encodeULEB128(Sub.Overflow.Dropped, Out);
      for (unsigned D = 0; D != 3; ++D) {
        encodeSLEB128(Sub.Overflow.Min[D], Out);
        encodeSLEB128(Sub.Overflow.Max[D], Out);
        encodeSLEB128(Sub.Overflow.Granularity[D], Out);
      }
      for (unsigned D = 0; D != 3; ++D) {
        encodeSLEB128(Sub.FirstDiscard[D], Out);
        encodeSLEB128(Sub.LastDiscard[D], Out);
      }
    }
  }
  std::vector<const std::pair<const trace::InstrId, InstrSummary> *>
      SortedInstrs;
  SortedInstrs.reserve(Instrs.size());
  // orp-analyze: allow(unordered-serialize): feeds the sort below.
  for (const auto &Entry : Instrs)
    SortedInstrs.push_back(&Entry);
  std::sort(SortedInstrs.begin(), SortedInstrs.end(),
            [](const auto *A, const auto *B) { return A->first < B->first; });

  encodeULEB128(Instrs.size(), Out);
  for (const auto *Entry : SortedInstrs) {
    encodeULEB128(Entry->first, Out);
    encodeULEB128(Entry->second.ExecCount, Out);
    encodeULEB128(Entry->second.StoreCount, Out);
  }

  uint32_t Crc = crc32(Out.data() + kHeaderSize, Out.size() - kHeaderSize);
  for (unsigned I = 0; I != 4; ++I)
    Out[5 + I] = static_cast<uint8_t>(Crc >> (8 * I));
  return Out;
}

namespace {

/// Cursor over an untrusted payload: every read is bounds-checked and
/// the first failure is latched into an error string.
struct PayloadCursor {
  const uint8_t *Data;
  size_t Size;
  size_t Pos = 0;
  std::string &Err;

  PayloadCursor(const uint8_t *Data, size_t Size, std::string &Err)
      : Data(Data), Size(Size), Err(Err) {}

  size_t remaining() const { return Size - Pos; }

  bool fail(const char *What, VarIntStatus Status) {
    Err = std::string("leap profile: ") + What + ": " +
          varIntStatusName(Status) + " varint";
    return false;
  }

  [[nodiscard]] bool readU(const char *What, uint64_t &Value) {
    VarIntStatus S = decodeULEB128Checked(Data, Size, Pos, Value);
    if (S != VarIntStatus::Ok)
      return fail(What, S);
    return true;
  }

  [[nodiscard]] bool readS(const char *What, int64_t &Value) {
    VarIntStatus S = decodeSLEB128Checked(Data, Size, Pos, Value);
    if (S != VarIntStatus::Ok)
      return fail(What, S);
    return true;
  }

  [[nodiscard]] bool readByte(const char *What, uint8_t &Value) {
    if (Pos >= Size) {
      Err = std::string("leap profile: ") + What + ": truncated";
      return false;
    }
    Value = Data[Pos++];
    return true;
  }
};

} // namespace

bool LeapProfileData::deserialize(const std::vector<uint8_t> &Bytes,
                                  LeapProfileData &Out, std::string &Err) {
  Out = LeapProfileData();
  if (Bytes.size() < kHeaderSize) {
    Err = "leap profile: truncated header";
    return false;
  }
  for (unsigned I = 0; I != 4; ++I)
    if (Bytes[I] != static_cast<uint8_t>(kMagic[I])) {
      Err = "leap profile: bad magic";
      return false;
    }
  if (Bytes[4] != kFormatVersion) {
    Err = "leap profile: unsupported format version " +
          std::to_string(Bytes[4]);
    return false;
  }
  uint32_t Stored = readLE32(Bytes.data() + 5);
  uint32_t Actual =
      crc32(Bytes.data() + kHeaderSize, Bytes.size() - kHeaderSize);
  if (Stored != Actual) {
    Err = "leap profile: checksum mismatch";
    return false;
  }

  PayloadCursor C(Bytes.data(), Bytes.size(), Err);
  C.Pos = kHeaderSize;
  uint64_t MaxLmads = 0;
  if (!C.readU("descriptor cap", MaxLmads))
    return false;
  if (MaxLmads == 0 || MaxLmads > (1u << 20)) {
    Err = "leap profile: implausible descriptor cap " +
          std::to_string(MaxLmads);
    return false;
  }
  Out.MaxLmads = static_cast<unsigned>(MaxLmads);

  uint64_t NumSubs = 0;
  if (!C.readU("substream count", NumSubs))
    return false;
  // Each substream record occupies at least 5 payload bytes, so a count
  // beyond that bound cannot be satisfied by the remaining input.
  if (NumSubs > C.remaining() / 5 + 1) {
    Err = "leap profile: substream count " + std::to_string(NumSubs) +
          " exceeds remaining bytes";
    return false;
  }
  for (uint64_t S = 0; S != NumSubs; ++S) {
    core::VerticalKey Key;
    uint64_t Instr = 0, Group = 0;
    if (!C.readU("substream instruction", Instr) ||
        !C.readU("substream group", Group))
      return false;
    Key.Instr = static_cast<trace::InstrId>(Instr);
    Key.Group = static_cast<omc::GroupId>(Group);
    SubstreamData Sub;
    uint64_t NumLmads = 0;
    if (!C.readU("substream points", Sub.TotalPoints) ||
        !C.readU("descriptor count", NumLmads))
      return false;
    if (NumLmads > MaxLmads) {
      Err = "leap profile: descriptor count " + std::to_string(NumLmads) +
            " exceeds the cap " + std::to_string(MaxLmads);
      return false;
    }
    // A descriptor is at least 7 bytes (six SLEB fields plus a count).
    if (NumLmads > C.remaining() / 7 + 1) {
      Err = "leap profile: descriptor count exceeds remaining bytes";
      return false;
    }
    Sub.Lmads.reserve(NumLmads);
    uint64_t CapturedPoints = 0;
    for (uint64_t L = 0; L != NumLmads; ++L) {
      lmad::Lmad M;
      M.Dims = 3;
      for (unsigned D = 0; D != 3; ++D)
        if (!C.readS("descriptor start", M.Start[D]) ||
            !C.readS("descriptor stride", M.Stride[D]))
          return false;
      if (!C.readU("descriptor length", M.Count))
        return false;
      if (M.Count == 0) {
        Err = "leap profile: empty descriptor";
        return false;
      }
      CapturedPoints += M.Count;
      Sub.Lmads.push_back(M);
    }
    uint8_t HasOverflow = 0;
    if (!C.readByte("overflow flag", HasOverflow))
      return false;
    if (HasOverflow > 1) {
      Err = "leap profile: bad overflow flag";
      return false;
    }
    if (HasOverflow) {
      if (!C.readU("dropped count", Sub.Overflow.Dropped))
        return false;
      if (Sub.Overflow.Dropped == 0) {
        Err = "leap profile: overflow record with zero dropped points";
        return false;
      }
      for (unsigned D = 0; D != 3; ++D)
        if (!C.readS("overflow min", Sub.Overflow.Min[D]) ||
            !C.readS("overflow max", Sub.Overflow.Max[D]) ||
            !C.readS("overflow granularity", Sub.Overflow.Granularity[D]))
          return false;
      for (unsigned D = 0; D != 3; ++D)
        if (!C.readS("first discard", Sub.FirstDiscard[D]) ||
            !C.readS("last discard", Sub.LastDiscard[D]))
          return false;
    }
    // Every point is either inside a descriptor or dropped; anything
    // else means the image was not produced by a compressor.
    if (Sub.TotalPoints != CapturedPoints + Sub.Overflow.Dropped) {
      Err = "leap profile: point accounting mismatch (total " +
            std::to_string(Sub.TotalPoints) + ", captured " +
            std::to_string(CapturedPoints) + ", dropped " +
            std::to_string(Sub.Overflow.Dropped) + ")";
      return false;
    }
    if (!Out.Substreams.emplace(Key, std::move(Sub)).second) {
      Err = "leap profile: duplicate substream key";
      return false;
    }
  }
  uint64_t NumInstrs = 0;
  if (!C.readU("instruction count", NumInstrs))
    return false;
  // Each instruction row is at least 3 payload bytes.
  if (NumInstrs > C.remaining() / 3 + 1) {
    Err = "leap profile: instruction count exceeds remaining bytes";
    return false;
  }
  for (uint64_t I = 0; I != NumInstrs; ++I) {
    uint64_t Instr = 0;
    InstrSummary Summary;
    if (!C.readU("instruction id", Instr) ||
        !C.readU("exec count", Summary.ExecCount) ||
        !C.readU("store count", Summary.StoreCount))
      return false;
    if (Summary.StoreCount > Summary.ExecCount) {
      Err = "leap profile: store count exceeds exec count";
      return false;
    }
    if (!Out.Instrs.emplace(static_cast<trace::InstrId>(Instr), Summary)
             .second) {
      Err = "leap profile: duplicate instruction id";
      return false;
    }
  }
  if (C.Pos != Bytes.size()) {
    Err = "leap profile: trailing bytes";
    return false;
  }
  return true;
}

bool LeapProfileData::mergeSequential(const LeapProfileData &Next,
                                      std::string &Err) {
  if (MaxLmads != Next.MaxLmads) {
    Err = "merge: descriptor caps differ (" + std::to_string(MaxLmads) +
          " vs " + std::to_string(Next.MaxLmads) + ")";
    return false;
  }
  // The fold is per-key, independent of iteration order.
  for (const auto &[Key, Right] : Next.Substreams) {
    auto It = Substreams.find(Key);
    if (It == Substreams.end()) {
      Substreams.emplace(Key, Right);
      continue;
    }
    SubstreamData &Left = It->second;
    // Resume the left segment's compressor exactly where it stopped and
    // replay the right segment's captured prefix through it. Capture is
    // a strict stream prefix (discarding is sticky), so this reproduces
    // the unsplit compressor state bit for bit; the right segment's
    // dropped tail then folds in arithmetically.
    lmad::LmadCompressor Compressor = lmad::LmadCompressor::resume(
        /*Dims=*/3, MaxLmads, std::move(Left.Lmads), Left.TotalPoints,
        Left.Overflow, Left.FirstDiscard, Left.LastDiscard);
    for (const lmad::Lmad &L : Right.Lmads)
      for (uint64_t K = 0; K != L.Count; ++K)
        Compressor.addPoint(L.pointAt(K));
    Compressor.foldOverflowTail(Right.Overflow, Right.FirstDiscard,
                                Right.LastDiscard);
    Left.Lmads = Compressor.lmads();
    Left.Overflow = Compressor.overflow();
    Left.TotalPoints = Compressor.totalPoints();
    Left.FirstDiscard = Compressor.firstDiscard();
    Left.LastDiscard = Compressor.lastDiscard();
  }
  for (const auto &[Instr, Summary] : Next.Instrs) {
    InstrSummary &Mine = Instrs[Instr];
    Mine.ExecCount += Summary.ExecCount;
    Mine.StoreCount += Summary.StoreCount;
  }
  return true;
}

namespace {

/// Canonical total order over descriptors for the union merge: most
/// points first, ties broken lexicographically. Any fixed total order
/// keeps staged top-K folds associative; this one keeps the densest
/// patterns.
bool unionDescLess(const lmad::Lmad &A, const lmad::Lmad &B) {
  if (A.Count != B.Count)
    return A.Count > B.Count;
  if (A.Start != B.Start)
    return A.Start < B.Start;
  return A.Stride < B.Stride;
}

/// Folds a descriptor displaced from the capped union into the overflow
/// summary, the same way its points would summarize individually: the
/// point count adds, the two endpoints widen min/max, and the stride
/// magnitudes join the granularity gcd.
void foldDescriptorIntoOverflow(const lmad::Lmad &L,
                                lmad::OverflowSummary &O) {
  lmad::Point First = L.pointAt(0);
  lmad::Point Last = L.pointAt(L.Count - 1);
  if (O.Dropped == 0) {
    O.Min = First;
    O.Max = First;
  }
  for (unsigned D = 0; D != 3; ++D) {
    O.Min[D] = std::min({O.Min[D], First[D], Last[D]});
    O.Max[D] = std::max({O.Max[D], First[D], Last[D]});
    if (L.Count > 1) {
      uint64_t Mag = static_cast<uint64_t>(
          L.Stride[D] < 0 ? -static_cast<uint64_t>(L.Stride[D])
                          : static_cast<uint64_t>(L.Stride[D]));
      O.Granularity[D] = static_cast<int64_t>(
          std::gcd(static_cast<uint64_t>(O.Granularity[D]), Mag));
    }
  }
  O.Dropped += L.Count;
}

} // namespace

bool LeapProfileData::mergeUnion(const LeapProfileData &Other,
                                 std::string &Err) {
  if (MaxLmads != Other.MaxLmads) {
    Err = "merge: descriptor caps differ (" + std::to_string(MaxLmads) +
          " vs " + std::to_string(Other.MaxLmads) + ")";
    return false;
  }
  // The fold is per-key, independent of iteration order.
  for (const auto &[Key, Theirs] : Other.Substreams) {
    auto It = Substreams.find(Key);
    if (It == Substreams.end()) {
      Substreams.emplace(Key, Theirs);
      continue;
    }
    SubstreamData &Mine = It->second;
    std::vector<lmad::Lmad> Union = std::move(Mine.Lmads);
    Union.insert(Union.end(), Theirs.Lmads.begin(), Theirs.Lmads.end());
    std::sort(Union.begin(), Union.end(), unionDescLess);

    lmad::OverflowSummary O;
    // Seed the summary fold with both inputs' overflow (min/max widen,
    // gcd of granularities, dropped counts add); all three operations
    // are associative and commutative.
    const lmad::OverflowSummary *Inputs[2] = {&Mine.Overflow,
                                              &Theirs.Overflow};
    for (const lmad::OverflowSummary *In : Inputs) {
      if (In->Dropped == 0)
        continue;
      if (O.Dropped == 0) {
        O = *In;
        continue;
      }
      for (unsigned D = 0; D != 3; ++D) {
        O.Min[D] = std::min(O.Min[D], In->Min[D]);
        O.Max[D] = std::max(O.Max[D], In->Max[D]);
        O.Granularity[D] = static_cast<int64_t>(
            std::gcd(static_cast<uint64_t>(O.Granularity[D]),
                     static_cast<uint64_t>(In->Granularity[D])));
      }
      O.Dropped += In->Dropped;
    }
    if (Union.size() > MaxLmads) {
      for (size_t I = MaxLmads; I != Union.size(); ++I)
        foldDescriptorIntoOverflow(Union[I], O);
      Union.resize(MaxLmads);
    }
    Mine.Lmads = std::move(Union);
    Mine.Overflow = O;
    Mine.TotalPoints += Theirs.TotalPoints;
    // Independent runs have no inter-segment ordering; pin the discard
    // endpoints to the summary extremes so the result is canonical.
    Mine.FirstDiscard = O.Min;
    Mine.LastDiscard = O.Max;
  }
  for (const auto &[Instr, Summary] : Other.Instrs) {
    InstrSummary &Mine = Instrs[Instr];
    Mine.ExecCount += Summary.ExecCount;
    Mine.StoreCount += Summary.StoreCount;
  }
  return true;
}
