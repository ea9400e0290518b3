//===- traceio/BlockCodec.cpp - Standalone event-block decode ------------===//

#include "traceio/BlockCodec.h"

#include "support/Checksum.h"
#include "support/VarInt.h"
#include "telemetry/Registry.h"

using namespace orp;
using namespace orp::traceio;

namespace {

std::string where(uint64_t BlockIndex, uint64_t AbsOffset) {
  return "block " + std::to_string(BlockIndex) + " at byte " +
         std::to_string(AbsOffset);
}

/// Block-granularity decode instrumentation (one histogram sample + two
/// counter bumps per block, not per event). Safe from decode-ahead and
/// session-scheduler workers: the metrics are shard-atomic. The
/// references resolve once.
struct DecodeMetrics {
  telemetry::Histogram &Ns;
  telemetry::Counter &Blocks;
  telemetry::Counter &Events;

  static DecodeMetrics &get() {
    static DecodeMetrics M{
        telemetry::Registry::global().histogram("traceio.block_decode_ns"),
        telemetry::Registry::global().counter("traceio.blocks_decoded"),
        telemetry::Registry::global().counter("traceio.events_decoded")};
    return M;
  }
};

/// Decodes a columnar payload: five length-prefixed columns, each
/// decoded in its own loop, then zipped back into delivery order.
bool decodeColumns(const uint8_t *Payload, size_t Len, uint64_t EventCount,
                   DecodedBlock &Out, std::string &Err, uint64_t BlockIndex,
                   uint64_t BaseOffset) {
  auto FailAt = [&](size_t At, const std::string &Msg) {
    Err = where(BlockIndex, BaseOffset + At) + ": " + Msg;
    Out.clear();
    return false;
  };

  // Column directory: five uleb-length-prefixed byte ranges.
  struct Column {
    const uint8_t *Data;
    size_t Len;
    size_t Base; ///< Payload-relative offset, for diagnostics.
  };
  static constexpr const char *ColNames[5] = {"kind", "id", "address",
                                              "time", "size"};
  Column Cols[5];
  size_t Pos = 0;
  for (int C = 0; C != 5; ++C) {
    uint64_t ColLen;
    VarIntStatus St = decodeULEB128Checked(Payload, Len, Pos, ColLen);
    if (St != VarIntStatus::Ok)
      return FailAt(Pos, std::string("malformed ") + ColNames[C] +
                             " column header (" + varIntStatusName(St) +
                             " varint)");
    if (ColLen > Len - Pos)
      return FailAt(Pos, std::string("truncated ") + ColNames[C] +
                             " column: declares " + std::to_string(ColLen) +
                             " bytes, " + std::to_string(Len - Pos) +
                             " remain");
    Cols[C] = Column{Payload + Pos, static_cast<size_t>(ColLen), Pos};
    Pos += ColLen;
  }
  if (Pos != Len)
    return FailAt(Pos, "trailing bytes in event payload");

  const Column &Kinds = Cols[0], &Ids = Cols[1], &Addrs = Cols[2],
               &Times = Cols[3], &Sizes = Cols[4];

  // The kind column is one tag byte per event, so its byte length must
  // equal the block's declared event count exactly.
  if (Kinds.Len != EventCount)
    return FailAt(Kinds.Base,
                  "column length mismatch: kind column holds " +
                      std::to_string(Kinds.Len) +
                      " entries, block declares " +
                      std::to_string(EventCount));

  // Pass 1 over the tags: validate opcodes and size the other columns.
  uint64_t NumAccesses = 0, NumIds = 0, NumSizes = 0;
  for (size_t I = 0; I != Kinds.Len; ++I) {
    uint8_t Tag = Kinds.Data[I];
    switch (Tag & kOpMask) {
    case kOpAccess:
      ++NumAccesses;
      ++NumIds;
      if (!(Tag & kTagSize8))
        ++NumSizes;
      break;
    case kOpAlloc:
      ++NumIds;
      ++NumSizes;
      break;
    case kOpFree:
      break;
    default:
      return FailAt(Kinds.Base + I, "unknown event opcode " +
                                        std::to_string(Tag & kOpMask));
    }
  }

  // Per-column tight loops. Every iteration decodes one varint through
  // the unrolled 1-2 byte fast path and writes one slot of a flat
  // array: no tag dispatch, no callback, no cross-field dependency.
  // This is the loop shape the columnar layout exists for.
  auto DecodeUlebColumn = [&](const Column &Col, const char *Name,
                              uint64_t Count,
                              std::vector<uint64_t> &Vals) -> bool {
    Vals.resize(Count);
    size_t P = 0;
    for (uint64_t I = 0; I != Count; ++I) {
      uint64_t V;
      VarIntStatus St = decodeULEB128Fast(Col.Data, Col.Len, P, V);
      if (St != VarIntStatus::Ok)
        return FailAt(Col.Base + P, std::string("malformed ") + Name +
                                        " column (" + varIntStatusName(St) +
                                        " varint)");
      Vals[I] = V;
    }
    if (P != Col.Len)
      return FailAt(Col.Base + P,
                    "column length mismatch: " +
                        std::to_string(Col.Len - P) + " trailing bytes in " +
                        Name + " column");
    return true;
  };
  // Address/time deltas decode straight into running absolute values
  // (the per-block delta chain starts at zero).
  auto DecodeSlebColumn = [&](const Column &Col, const char *Name,
                              uint64_t Count,
                              std::vector<uint64_t> &Vals) -> bool {
    Vals.resize(Count);
    size_t P = 0;
    uint64_t Prev = 0;
    for (uint64_t I = 0; I != Count; ++I) {
      int64_t Delta;
      VarIntStatus St = decodeSLEB128Fast(Col.Data, Col.Len, P, Delta);
      if (St != VarIntStatus::Ok)
        return FailAt(Col.Base + P, std::string("malformed ") + Name +
                                        " column (" + varIntStatusName(St) +
                                        " varint)");
      Prev += static_cast<uint64_t>(Delta);
      Vals[I] = Prev;
    }
    if (P != Col.Len)
      return FailAt(Col.Base + P,
                    "column length mismatch: " +
                        std::to_string(Col.Len - P) + " trailing bytes in " +
                        Name + " column");
    return true;
  };

  std::vector<uint64_t> IdVals, AddrVals, TimeVals, SizeVals;
  if (!DecodeUlebColumn(Ids, "id", NumIds, IdVals) ||
      !DecodeSlebColumn(Addrs, "address", EventCount, AddrVals) ||
      !DecodeSlebColumn(Times, "time", EventCount, TimeVals) ||
      !DecodeUlebColumn(Sizes, "size", NumSizes, SizeVals))
    return false;

  // Zip the columns back into delivery order. Blocks between alloc/free
  // boundaries are pure access runs — by far the common shape — so that
  // case gets a straight-line loop with no opcode dispatch.
  if (NumAccesses == EventCount) {
    Out.Accesses.resize(EventCount);
    trace::AccessEvent *A = Out.Accesses.data();
    size_t IdCur = 0, SizeCur = 0;
    for (uint64_t I = 0; I != EventCount; ++I) {
      uint8_t Tag = Kinds.Data[I];
      A[I].Instr = static_cast<trace::InstrId>(IdVals[IdCur++]);
      A[I].Addr = AddrVals[I];
      A[I].Size = static_cast<uint32_t>((Tag & kTagSize8) ? 8
                                                          : SizeVals[SizeCur++]);
      A[I].IsStore = (Tag & kTagStore) != 0;
      A[I].Time = TimeVals[I];
    }
    return true;
  }
  Out.Accesses.reserve(NumAccesses);
  Out.Boundaries.reserve(EventCount - NumAccesses);
  size_t IdCur = 0, SizeCur = 0;
  for (uint64_t I = 0; I != EventCount; ++I) {
    uint8_t Tag = Kinds.Data[I];
    switch (Tag & kOpMask) {
    case kOpAccess: {
      uint64_t Size = (Tag & kTagSize8) ? 8 : SizeVals[SizeCur++];
      Out.Accesses.push_back(trace::AccessEvent{
          static_cast<trace::InstrId>(IdVals[IdCur++]), AddrVals[I],
          static_cast<uint32_t>(Size), (Tag & kTagStore) != 0, TimeVals[I]});
      break;
    }
    case kOpAlloc: {
      TraceEvent E;
      E.K = TraceEvent::Kind::Alloc;
      E.InstrOrSite = static_cast<uint32_t>(IdVals[IdCur++]);
      E.Addr = AddrVals[I];
      E.Size = SizeVals[SizeCur++];
      E.Time = TimeVals[I];
      E.IsStatic = (Tag & kTagStatic) != 0;
      Out.Boundaries.push_back(
          DecodedBlock::Boundary{Out.Accesses.size(), E});
      break;
    }
    default: { // kOpFree; pass 1 rejected everything else.
      TraceEvent E;
      E.K = TraceEvent::Kind::Free;
      E.Addr = AddrVals[I];
      E.Time = TimeVals[I];
      Out.Boundaries.push_back(
          DecodedBlock::Boundary{Out.Accesses.size(), E});
      break;
    }
    }
  }
  return true;
}

} // namespace

bool traceio::verifyBlockChecksum(const uint8_t *Payload, size_t Len,
                                  uint32_t Crc, uint64_t BlockIndex,
                                  uint64_t BaseOffset, std::string &Err) {
  if (crc32(Payload, Len) == Crc)
    return true;
  Err = where(BlockIndex, BaseOffset) +
        ": checksum mismatch (corrupted file)";
  return false;
}

bool traceio::decodeEventBlock(const uint8_t *Payload, size_t Len,
                               uint64_t EventCount, DecodedBlock &Out,
                               std::string &Err, uint64_t BlockIndex,
                               uint64_t BaseOffset) {
  DecodeMetrics &Metrics = DecodeMetrics::get();
  telemetry::ScopedHistogramTimer Timing(Metrics.Ns);
  Metrics.Blocks.add();
  Metrics.Events.add(EventCount);

  Out.clear();
  return decodeColumns(Payload, Len, EventCount, Out, Err, BlockIndex,
                       BaseOffset);
}

void traceio::forEachDecodedEvent(
    const DecodedBlock &Block,
    const std::function<void(const TraceEvent &)> &Fn) {
  auto EmitAccess = [&](const trace::AccessEvent &A) {
    TraceEvent E;
    E.K = TraceEvent::Kind::Access;
    E.InstrOrSite = A.Instr;
    E.Addr = A.Addr;
    E.Size = A.Size;
    E.Time = A.Time;
    E.IsStore = A.IsStore;
    Fn(E);
  };
  size_t Cursor = 0;
  for (const DecodedBlock::Boundary &B : Block.Boundaries) {
    for (; Cursor != B.AccessesBefore; ++Cursor)
      EmitAccess(Block.Accesses[Cursor]);
    Fn(B.E);
  }
  for (; Cursor != Block.Accesses.size(); ++Cursor)
    EmitAccess(Block.Accesses[Cursor]);
}
