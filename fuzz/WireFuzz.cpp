//===- fuzz/WireFuzz.cpp - orp-traced frames on arbitrary bytes ----------===//
//
// Property: the daemon wire protocol's parsers accept or reject ANY
// byte stream cleanly — no crash, no sanitizer report. The input is fed
// to FrameParser twice, in one piece and in arbitrary splits with the
// frames drained between feeds, as a daemon reading a socket does: both
// must yield the same frames and the same failure, and failed() must
// come with an error(). Every frame's payload goes through each request
// and reply decoder; a rejected payload must carry an error message.
//
// Round trip: the input also seeds one OPEN request and one EVENTS
// header with a payload; encodeOpen/encodeEventsHeader, framed and fed
// in splits, must decode to exactly what was encoded, unless an
// instruction's kind byte is neither Load nor Store: that OPEN request
// must be refused. Seeds are streams built by the encoders.
//
//===----------------------------------------------------------------------===//

#include "FuzzTarget.h"

#include "session/Wire.h"
#include "support/Checksum.h"

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

using namespace orp;
using namespace orp::session;

namespace {

/// Reads fields off the fuzz input; zeros once it runs out.
class ByteSource {
public:
  ByteSource(const uint8_t *Data, size_t Size) : Data(Data), Size(Size) {}

  uint8_t byte() { return Pos < Size ? Data[Pos++] : 0; }
  uint64_t bytes(unsigned N) {
    uint64_t V = 0;
    for (unsigned I = 0; I != N; ++I)
      V = V << 8 | byte();
    return V;
  }
  std::string string() {
    std::string S(byte() % 32, '\0');
    for (char &C : S)
      C = static_cast<char>(byte());
    return S;
  }
  std::vector<uint8_t> rest() {
    std::vector<uint8_t> Out(Data + Pos, Data + Size);
    Pos = Size;
    return Out;
  }

private:
  const uint8_t *Data;
  size_t Size;
  size_t Pos = 0;
};

/// The frames a parser yields for a stream, and how the stream ended.
struct Parsed {
  std::vector<std::tuple<uint8_t, std::vector<uint8_t>>> Frames;
  bool Failed = false;
  std::string Error;
};

void drain(FrameParser &P, Parsed &Out) {
  Frame F;
  while (P.next(F))
    Out.Frames.emplace_back(static_cast<uint8_t>(F.Type), F.Payload);
}

/// Feeds \p Stream to a fresh parser in chunks drawn from an xorshift
/// generator seeded with \p Seed (Seed 0: one piece), draining frames
/// after every feed.
Parsed parseInSplits(const std::vector<uint8_t> &Stream, uint64_t Seed) {
  FrameParser P;
  Parsed Out;
  uint64_t X = Seed;
  size_t Pos = 0;
  do {
    size_t Chunk = Stream.size() - Pos;
    if (Seed) {
      X ^= X << 13;
      X ^= X >> 7;
      X ^= X << 17;
      // Mostly short chunks, so frame headers split; sometimes long.
      size_t Max = (X & 3) ? 8 : Chunk;
      Chunk = std::min<size_t>(Chunk, (X >> 8) % (Max + 1));
    }
    P.feed(Stream.data() + Pos, Chunk);
    Pos += Chunk;
    drain(P, Out);
  } while (Pos != Stream.size() && !P.failed());
  ORP_FUZZ_REQUIRE(!P.failed() || !P.error().empty(),
                   "FrameParser failed without an error message");
  Out.Failed = P.failed();
  Out.Error = P.error();
  return Out;
}

uint64_t splitSeedOf(const uint8_t *Data, size_t Size) {
  return (uint64_t(crc32(Data, Size)) << 32) | 0x9e3779b9u;
}

/// Every decoder on one frame payload: no crash, and a rejection says
/// why.
void decodeAll(const std::vector<uint8_t> &Payload) {
  std::string Err;
  OpenRequest Open;
  if (!decodeOpen(Payload.data(), Payload.size(), Open, Err))
    ORP_FUZZ_REQUIRE(!Err.empty(), "OPEN rejected without an error");
  Err.clear();
  EventsHeader Events;
  if (!decodeEventsHeader(Payload.data(), Payload.size(), Events, Err))
    ORP_FUZZ_REQUIRE(!Err.empty(), "EVENTS rejected without an error");
  else
    ORP_FUZZ_REQUIRE(Events.PayloadOffset <= Payload.size(),
                     "EVENTS payload offset past the frame");
  Err.clear();
  SnapshotRequest Snap;
  if (!decodeSnapshot(Payload.data(), Payload.size(), Snap, Err))
    ORP_FUZZ_REQUIRE(!Err.empty(), "SNAPSHOT rejected without an error");
  Err.clear();
  CloseSummary Close;
  if (!decodeCloseSummary(Payload.data(), Payload.size(), Close, Err))
    ORP_FUZZ_REQUIRE(!Err.empty(), "CLOSE reply rejected without an error");
}

/// Arbitrary bytes as a wire stream.
void checkStream(const uint8_t *Data, size_t Size) {
  std::vector<uint8_t> Stream(Data, Data + Size);
  Parsed Whole = parseInSplits(Stream, 0);
  Parsed Split = parseInSplits(Stream, splitSeedOf(Data, Size));
  ORP_FUZZ_REQUIRE(Whole.Frames == Split.Frames &&
                       Whole.Failed == Split.Failed &&
                       Whole.Error == Split.Error,
                   "splitting the stream changed what FrameParser yields");
  for (const auto &[Type, Payload] : Whole.Frames)
    decodeAll(Payload);
}

bool sameOpen(const OpenRequest &A, const OpenRequest &B) {
  auto Instrs = [](const OpenRequest &R) {
    std::vector<std::tuple<std::string, uint8_t>> Out;
    for (const trace::InstrInfo &I : R.Instrs)
      Out.emplace_back(I.Name, static_cast<uint8_t>(I.Kind));
    return Out;
  };
  auto Sites = [](const OpenRequest &R) {
    std::vector<std::tuple<std::string, std::string>> Out;
    for (const trace::AllocSiteInfo &S : R.Sites)
      Out.emplace_back(S.Name, S.TypeName);
    return Out;
  };
  return A.Name == B.Name && A.Config.Policy == B.Config.Policy &&
         A.Config.Seed == B.Config.Seed &&
         A.Config.EnableWhomp == B.Config.EnableWhomp &&
         A.Config.EnableLeap == B.Config.EnableLeap &&
         A.Config.MaxLmads == B.Config.MaxLmads && Instrs(A) == Instrs(B) &&
         Sites(A) == Sites(B);
}

/// An OPEN request and an EVENTS frame built from the input must
/// survive encode -> frame -> split parse -> decode unchanged.
void checkRoundTrip(const uint8_t *Data, size_t Size) {
  ByteSource In(Data, Size);
  OpenRequest Req;
  Req.Name = In.string();
  Req.Config.Policy = static_cast<memsim::AllocPolicy>(In.byte());
  Req.Config.Seed = In.bytes(8);
  uint8_t Mask = In.byte();
  Req.Config.EnableWhomp = Mask & 1;
  Req.Config.EnableLeap = Mask & 2;
  Req.Config.MaxLmads = static_cast<unsigned>(In.bytes(4));
  for (unsigned I = In.byte() % 8; I; --I) {
    std::string Name = In.string();
    // One kind byte in eight (7, 15, ..., 255) is kept as drawn, never
    // Load or Store, so some requests must be refused; the rest become
    // Load or Store, so most must round-trip.
    uint8_t Kind = In.byte();
    if ((Kind & 7) != 7)
      Kind &= 1;
    Req.Instrs.push_back({Name, static_cast<trace::AccessKind>(Kind)});
  }
  for (unsigned I = In.byte() % 8; I; --I)
    Req.Sites.push_back({In.string(), In.string()});
  EventsHeader Hdr;
  Hdr.SessionId = In.bytes(8);
  Hdr.EventCount = In.bytes(8);
  Hdr.FormatVersion = In.byte();
  Hdr.Crc = static_cast<uint32_t>(In.bytes(4));
  std::vector<uint8_t> Block = In.rest();

  std::vector<uint8_t> OpenPayload, EventsPayload, Stream;
  encodeOpen(Req, OpenPayload);
  encodeEventsHeader(Hdr.SessionId, Hdr.EventCount, Hdr.FormatVersion,
                     Hdr.Crc, EventsPayload);
  Hdr.PayloadOffset = EventsPayload.size();
  EventsPayload.insert(EventsPayload.end(), Block.begin(), Block.end());
  appendFrame(FrameType::Open, OpenPayload, Stream);
  appendFrame(FrameType::Events, EventsPayload, Stream);

  Parsed P = parseInSplits(Stream, splitSeedOf(Data, Size) ^ 1);
  ORP_FUZZ_REQUIRE(!P.Failed && P.Frames.size() == 2,
                   "encoded frames did not parse back");
  const auto &[OpenType, OpenBytes] = P.Frames[0];
  const auto &[EventsType, EventsBytes] = P.Frames[1];
  ORP_FUZZ_REQUIRE(OpenType == static_cast<uint8_t>(FrameType::Open) &&
                       EventsType == static_cast<uint8_t>(FrameType::Events),
                   "frame types did not round-trip");
  OpenRequest GotReq;
  std::string Err;
  const bool OpenDecoded =
      decodeOpen(OpenBytes.data(), OpenBytes.size(), GotReq, Err);
  // Load and Store are the only access kinds: a request carrying any
  // other kind byte is refused, naming the first such byte.
  const auto BadKind = std::find_if(
      Req.Instrs.begin(), Req.Instrs.end(), [](const trace::InstrInfo &I) {
        return I.Kind != trace::AccessKind::Load &&
               I.Kind != trace::AccessKind::Store;
      });
  if (BadKind != Req.Instrs.end())
    ORP_FUZZ_REQUIRE(!OpenDecoded &&
                         Err == "OPEN frame: malformed instruction entry: "
                                "kind " +
                                    std::to_string(
                                        static_cast<unsigned>(BadKind->Kind)),
                     "OPEN request with an unknown access kind was not "
                     "refused");
  else
    ORP_FUZZ_REQUIRE(OpenDecoded && sameOpen(GotReq, Req),
                     "OPEN request did not round-trip");
  EventsHeader Got;
  ORP_FUZZ_REQUIRE(
      decodeEventsHeader(EventsBytes.data(), EventsBytes.size(), Got, Err) &&
          Got.SessionId == Hdr.SessionId &&
          Got.EventCount == Hdr.EventCount &&
          Got.FormatVersion == Hdr.FormatVersion && Got.Crc == Hdr.Crc &&
          Got.PayloadOffset == Hdr.PayloadOffset &&
          std::vector<uint8_t>(EventsBytes.begin() +
                                   static_cast<ptrdiff_t>(Got.PayloadOffset),
                               EventsBytes.end()) == Block,
      "EVENTS header did not round-trip");
}

} // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t *Data, size_t Size) {
  checkStream(Data, Size);
  checkRoundTrip(Data, Size);
  return 0;
}

std::vector<std::vector<uint8_t>> orpFuzzSeedInputs() {
  OpenRequest Req;
  Req.Name = "164.gzip-a";
  Req.Config.Seed = 7;
  Req.Instrs = {{"gzip: load", trace::AccessKind::Load},
                {"gzip: store", trace::AccessKind::Store}};
  Req.Sites = {{"gzip: alloc", "struct window"}};
  std::vector<uint8_t> Open, Events, Snapshot, Close, Stream;
  encodeOpen(Req, Open);
  encodeEventsHeader(/*SessionId=*/1, /*EventCount=*/3, /*FormatVersion=*/2,
                     /*Crc=*/0xdeadbeef, Events);
  Events.insert(Events.end(), {5, 1, 2, 3, 4, 5, 0, 0, 0});
  encodeSnapshot({/*Format=*/1, "164.gzip-a"}, Snapshot);
  CloseSummary Summary;
  Summary.Events = 3;
  Summary.Omsg = {'O', 'M', 'S', 'A'};
  encodeCloseSummary(Summary, Close);
  appendFrame(FrameType::Open, Open, Stream);
  appendFrame(FrameType::Events, Events, Stream);
  appendFrame(FrameType::Snapshot, Snapshot, Stream);
  appendFrame(FrameType::Close, {1}, Stream);
  appendFrame(FrameType::ReplyOk, Close, Stream);

  std::vector<std::vector<uint8_t>> Seeds;
  Seeds.push_back(Stream);
  // One frame of each request kind alone, so mutations hit each decoder
  // near a valid payload.
  for (const auto &[Type, Payload] :
       {std::make_tuple(FrameType::Open, Open),
        std::make_tuple(FrameType::Events, Events),
        std::make_tuple(FrameType::Snapshot, Snapshot)}) {
    std::vector<uint8_t> One;
    appendFrame(Type, Payload, One);
    Seeds.push_back(One);
  }
  // Degenerate streams: empty, a zero length, an oversized length.
  Seeds.push_back({});
  Seeds.push_back({0, 0, 0, 0, 1});
  Seeds.push_back({0xff, 0xff, 0xff, 0xff, 1});
  return Seeds;
}
