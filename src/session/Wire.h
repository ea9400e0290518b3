//===- session/Wire.h - orp-traced framed protocol -------------*- C++ -*-===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The length-prefixed framed protocol between orp-traced and its
/// clients, as pure byte codecs (no sockets here — Daemon and Client
/// own the fds). A frame is:
///
///   u32 LE  Length    length of Type + Payload
///   u8      Type      FrameType
///   ...     Payload   Length - 1 bytes
///
/// Request payloads:
///   Open      uleb nameLen, name, u8 alloc policy, u64 LE seed,
///             u8 profiler mask (1 = WHOMP, 2 = LEAP), uleb maxLmads,
///             registry payload (traceio::RegistryCodec) to end
///   Events    uleb sessionId, uleb eventCount, u8 format version
///             (traceio::kFormatVersionV2; ProfileSession::injectBlock
///             fails the session on any other), u32 LE crc, then the
///             still-encoded .orpt block payload *verbatim* — blocks
///             decode independently (delta state resets per block), so
///             the daemon feeds these bytes to the same BlockCodec a
///             file replay uses
///   Snapshot  u8 format (SnapshotFormat), uleb nameLen, name
///             (empty = whole registry, else filtered to that
///             session's "session.<name>." metrics)
///   Close     uleb sessionId
///
/// Reply payloads:
///   ReplyOk (to Open)    uleb sessionId
///   ReplyOk (to Events)  empty — the ack is the client's flow control
///   ReplyOk (to Close)   uleb events, u8 failed, uleb errLen, err,
///                        uleb omsgLen, omsg, uleb leapLen, leap
///   ReplySnapshot        the exporter text
///   ReplyErr             message text
///
/// Every request gets exactly one reply, in request order.
///
//===----------------------------------------------------------------------===//

#ifndef ORP_SESSION_WIRE_H
#define ORP_SESSION_WIRE_H

#include "session/ProfileSession.h"

#include <cstdint>
#include <string>
#include <vector>

namespace orp {
namespace session {

enum class FrameType : uint8_t {
  Open = 1,
  Events = 2,
  Snapshot = 3,
  Close = 4,
  ReplyOk = 0x80,
  ReplyErr = 0x81,
  ReplySnapshot = 0x82,
};

/// Frames larger than this are a protocol error (a desynced or hostile
/// client), not a huge allocation.
constexpr size_t kMaxFrameLength = 64u * 1024 * 1024;

struct Frame {
  FrameType Type = FrameType::ReplyErr;
  std::vector<uint8_t> Payload;
};

/// Appends the wire encoding of one frame to \p Out.
void appendFrame(FrameType Type, const std::vector<uint8_t> &Payload,
                 std::vector<uint8_t> &Out);

/// Incremental frame parser: feed() raw bytes as they arrive from a
/// socket, next() pops complete frames in order. A malformed length
/// latches failed() — the connection should be dropped.
class FrameParser {
public:
  void feed(const uint8_t *Data, size_t Len);

  /// Pops the next complete frame into \p Out; false when more bytes
  /// are needed (or the stream failed).
  [[nodiscard]] bool next(Frame &Out);

  [[nodiscard]] bool failed() const { return !Err.empty(); }
  const std::string &error() const { return Err; }

private:
  std::vector<uint8_t> Buf;
  size_t Pos = 0;
  std::string Err;
};

/// An Open request in struct form.
struct OpenRequest {
  std::string Name;
  SessionConfig Config;
  std::vector<trace::InstrInfo> Instrs;
  std::vector<trace::AllocSiteInfo> Sites;
};

void encodeOpen(const OpenRequest &Req, std::vector<uint8_t> &Out);
[[nodiscard]] bool decodeOpen(const uint8_t *Data, size_t Len, OpenRequest &Out,
                std::string &Err);

/// An Events frame's fixed header; the block payload follows at
/// \p PayloadOffset.
struct EventsHeader {
  uint64_t SessionId = 0;
  uint64_t EventCount = 0;
  uint8_t FormatVersion = 0; ///< .orpt format of the block payload.
  uint32_t Crc = 0;
  size_t PayloadOffset = 0;
};

void encodeEventsHeader(uint64_t SessionId, uint64_t EventCount,
                        uint8_t FormatVersion, uint32_t Crc,
                        std::vector<uint8_t> &Out);
[[nodiscard]] bool decodeEventsHeader(const uint8_t *Data, size_t Len, EventsHeader &Out,
                        std::string &Err);

/// A Snapshot request. Format values mirror telemetry::SnapshotFormat.
struct SnapshotRequest {
  uint8_t Format = 0;
  std::string SessionName; ///< Empty = whole-process snapshot.
};

void encodeSnapshot(const SnapshotRequest &Req, std::vector<uint8_t> &Out);
[[nodiscard]] bool decodeSnapshot(const uint8_t *Data, size_t Len, SnapshotRequest &Out,
                    std::string &Err);

/// The Close reply in struct form (artifacts travel back to the client
/// so tests can diff profiles without touching the daemon's outdir).
struct CloseSummary {
  uint64_t Events = 0;
  bool Failed = false;
  std::string Error;
  std::vector<uint8_t> Omsg;
  std::vector<uint8_t> Leap;
};

void encodeCloseSummary(const CloseSummary &Summary,
                        std::vector<uint8_t> &Out);
[[nodiscard]] bool decodeCloseSummary(const uint8_t *Data, size_t Len, CloseSummary &Out,
                        std::string &Err);

} // namespace session
} // namespace orp

#endif // ORP_SESSION_WIRE_H
