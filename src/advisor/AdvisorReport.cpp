//===- advisor/AdvisorReport.cpp - The .orpa advice artifact -------------===//

#include "advisor/AdvisorReport.h"

#include "support/Checksum.h"
#include "support/Endian.h"
#include "support/VarInt.h"

#include <algorithm>

using namespace orp;
using namespace orp::advisor;

bool orp::advisor::placementRankBefore(const PlacementAdvice &A,
                                       const PlacementAdvice &B) {
  // Density compared exactly by cross-multiplication: A.Access/A.Foot >
  // B.Access/B.Foot  <=>  A.Access*B.Foot > B.Access*A.Foot. A zero
  // footprint with accesses is infinitely dense and sorts first.
  using U128 = unsigned __int128;
  U128 Lhs = static_cast<U128>(A.AccessCount) * B.FootprintBytes;
  U128 Rhs = static_cast<U128>(B.AccessCount) * A.FootprintBytes;
  bool AInf = A.FootprintBytes == 0 && A.AccessCount != 0;
  bool BInf = B.FootprintBytes == 0 && B.AccessCount != 0;
  if (AInf != BInf)
    return AInf;
  if (!AInf && Lhs != Rhs)
    return Lhs > Rhs;
  if (A.AccessCount != B.AccessCount)
    return A.AccessCount > B.AccessCount;
  if (A.FootprintBytes != B.FootprintBytes)
    return A.FootprintBytes < B.FootprintBytes;
  return A.Group < B.Group;
}

bool orp::advisor::layoutRankBefore(const LayoutAdvice &A,
                                    const LayoutAdvice &B) {
  if (A.PairCount != B.PairCount)
    return A.PairCount > B.PairCount;
  if (A.Group != B.Group)
    return A.Group < B.Group;
  if (A.OffA != B.OffA)
    return A.OffA < B.OffA;
  return A.OffB < B.OffB;
}

size_t AdvisorReport::hotGroupCount() const {
  size_t N = 0;
  for (const PlacementAdvice &P : Placement)
    N += P.Hot ? 1 : 0;
  return N;
}

size_t AdvisorReport::poolCandidateCount() const {
  size_t N = 0;
  for (const PlacementAdvice &P : Placement)
    N += P.PoolCandidate ? 1 : 0;
  return N;
}

namespace {

constexpr uint8_t kFlagHot = 1;
constexpr uint8_t kFlagPool = 2;

} // namespace

std::vector<uint8_t> AdvisorReport::serialize() const {
  std::vector<uint8_t> Out;
  Out.reserve(64);
  for (char C : kMagic)
    Out.push_back(static_cast<uint8_t>(C));
  Out.push_back(kFormatVersion);
  appendLE32(0, Out); // Payload CRC, patched below.

  // Re-establish the canonical orders so the image is independent of
  // how the vectors were populated.
  std::vector<PlacementAdvice> Plan = Placement;
  std::sort(Plan.begin(), Plan.end(), placementRankBefore);
  std::vector<LayoutAdvice> Pairs = Layout;
  std::sort(Pairs.begin(), Pairs.end(), layoutRankBefore);
  std::vector<PrefetchAdvice> Loads = Prefetch;
  std::sort(Loads.begin(), Loads.end(),
            [](const PrefetchAdvice &A, const PrefetchAdvice &B) {
              return A.Instr < B.Instr;
            });

  encodeULEB128(Plan.size(), Out);
  for (const PlacementAdvice &P : Plan) {
    encodeULEB128(P.Group, Out);
    encodeULEB128(P.AccessCount, Out);
    encodeULEB128(P.FootprintBytes, Out);
    encodeULEB128(P.ObjectCount, Out);
    encodeULEB128(P.MeanLifetime, Out);
    Out.push_back(static_cast<uint8_t>((P.Hot ? kFlagHot : 0) |
                                       (P.PoolCandidate ? kFlagPool : 0)));
  }
  encodeULEB128(Pairs.size(), Out);
  for (const LayoutAdvice &L : Pairs) {
    encodeULEB128(L.Group, Out);
    encodeULEB128(L.OffA, Out);
    encodeULEB128(L.OffB, Out);
    encodeULEB128(L.PairCount, Out);
  }
  encodeULEB128(Loads.size(), Out);
  for (const PrefetchAdvice &P : Loads) {
    encodeULEB128(P.Instr, Out);
    encodeSLEB128(P.Stride, Out);
    encodeULEB128(P.SharePermille, Out);
    encodeULEB128(P.Distance, Out);
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
    Err = std::string("advice report: ") + What + ": " +
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
      Err = std::string("advice report: ") + What + ": truncated";
      return false;
    }
    Value = Data[Pos++];
    return true;
  }
};

} // namespace

bool AdvisorReport::deserialize(const std::vector<uint8_t> &Bytes,
                                AdvisorReport &Out, std::string &Err) {
  Out = AdvisorReport();
  if (Bytes.size() < kHeaderSize) {
    Err = "advice report: truncated header";
    return false;
  }
  for (unsigned I = 0; I != 4; ++I)
    if (Bytes[I] != static_cast<uint8_t>(kMagic[I])) {
      Err = "advice report: bad magic";
      return false;
    }
  if (Bytes[4] != kFormatVersion) {
    Err = "advice report: unsupported format version " +
          std::to_string(Bytes[4]);
    return false;
  }
  uint32_t Stored = readLE32(Bytes.data() + 5);
  uint32_t Actual =
      crc32(Bytes.data() + kHeaderSize, Bytes.size() - kHeaderSize);
  if (Stored != Actual) {
    Err = "advice report: checksum mismatch";
    return false;
  }

  PayloadCursor C(Bytes.data(), Bytes.size(), Err);
  C.Pos = kHeaderSize;

  uint64_t NumPlan = 0;
  if (!C.readU("placement count", NumPlan))
    return false;
  // Each placement entry occupies at least 6 payload bytes.
  if (NumPlan > C.remaining() / 6 + 1) {
    Err = "advice report: placement count " + std::to_string(NumPlan) +
          " exceeds remaining bytes";
    return false;
  }
  Out.Placement.reserve(NumPlan);
  for (uint64_t I = 0; I != NumPlan; ++I) {
    PlacementAdvice P;
    uint64_t Group = 0;
    uint8_t Flags = 0;
    if (!C.readU("placement group", Group) ||
        !C.readU("placement accesses", P.AccessCount) ||
        !C.readU("placement footprint", P.FootprintBytes) ||
        !C.readU("placement objects", P.ObjectCount) ||
        !C.readU("placement lifetime", P.MeanLifetime) ||
        !C.readByte("placement flags", Flags))
      return false;
    if (Group > ~static_cast<omc::GroupId>(0)) {
      Err = "advice report: placement group id out of range";
      return false;
    }
    P.Group = static_cast<omc::GroupId>(Group);
    if (Flags & ~(kFlagHot | kFlagPool)) {
      Err = "advice report: unknown placement flags";
      return false;
    }
    P.Hot = (Flags & kFlagHot) != 0;
    P.PoolCandidate = (Flags & kFlagPool) != 0;
    if (P.ObjectCount == 0 && P.FootprintBytes != 0) {
      Err = "advice report: placement footprint without objects";
      return false;
    }
    // The serialized order is the rank; anything else is a forgery or
    // corruption (and would break the canonical-serialization fixpoint).
    if (!Out.Placement.empty() &&
        !placementRankBefore(Out.Placement.back(), P)) {
      Err = "advice report: placement entries out of rank order";
      return false;
    }
    Out.Placement.push_back(P);
  }

  uint64_t NumLayout = 0;
  if (!C.readU("layout count", NumLayout))
    return false;
  // Each layout entry occupies at least 4 payload bytes.
  if (NumLayout > C.remaining() / 4 + 1) {
    Err = "advice report: layout count exceeds remaining bytes";
    return false;
  }
  Out.Layout.reserve(NumLayout);
  for (uint64_t I = 0; I != NumLayout; ++I) {
    LayoutAdvice L;
    uint64_t Group = 0;
    if (!C.readU("layout group", Group) || !C.readU("layout offA", L.OffA) ||
        !C.readU("layout offB", L.OffB) ||
        !C.readU("layout pair count", L.PairCount))
      return false;
    if (Group > ~static_cast<omc::GroupId>(0)) {
      Err = "advice report: layout group id out of range";
      return false;
    }
    L.Group = static_cast<omc::GroupId>(Group);
    if (L.OffA >= L.OffB) {
      Err = "advice report: layout offsets not ascending";
      return false;
    }
    if (L.PairCount == 0) {
      Err = "advice report: layout entry with zero pair count";
      return false;
    }
    if (!Out.Layout.empty() && !layoutRankBefore(Out.Layout.back(), L)) {
      Err = "advice report: layout entries out of canonical order";
      return false;
    }
    Out.Layout.push_back(L);
  }

  uint64_t NumPrefetch = 0;
  if (!C.readU("prefetch count", NumPrefetch))
    return false;
  // Each prefetch entry occupies at least 4 payload bytes.
  if (NumPrefetch > C.remaining() / 4 + 1) {
    Err = "advice report: prefetch count exceeds remaining bytes";
    return false;
  }
  Out.Prefetch.reserve(NumPrefetch);
  for (uint64_t I = 0; I != NumPrefetch; ++I) {
    PrefetchAdvice P;
    uint64_t Instr = 0, Share = 0, Distance = 0;
    if (!C.readU("prefetch instruction", Instr) ||
        !C.readS("prefetch stride", P.Stride) ||
        !C.readU("prefetch share", Share) ||
        !C.readU("prefetch distance", Distance))
      return false;
    if (Instr > ~static_cast<trace::InstrId>(0)) {
      Err = "advice report: prefetch instruction id out of range";
      return false;
    }
    P.Instr = static_cast<trace::InstrId>(Instr);
    if (Share == 0 || Share > 1000) {
      Err = "advice report: prefetch share outside (0, 1000]";
      return false;
    }
    P.SharePermille = static_cast<uint32_t>(Share);
    if (Distance == 0 || Distance > 4096) {
      Err = "advice report: prefetch distance outside (0, 4096]";
      return false;
    }
    P.Distance = static_cast<uint32_t>(Distance);
    if (P.Stride == 0) {
      Err = "advice report: prefetch entry with zero stride";
      return false;
    }
    if (!Out.Prefetch.empty() && Out.Prefetch.back().Instr >= P.Instr) {
      Err = "advice report: prefetch instructions not strictly increasing";
      return false;
    }
    Out.Prefetch.push_back(P);
  }

  if (C.Pos != Bytes.size()) {
    Err = "advice report: trailing bytes";
    return false;
  }
  return true;
}
