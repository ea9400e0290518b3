//===- bench/traceio_bench.cpp - Trace size and replay throughput --------===//
//
// Measures the .orpt trace format against the obvious baseline — a naive
// one-line-per-event text dump, raw and gzip-compressed — and times
// replay (decode + re-drive a fresh session, with and without a WHOMP
// profiler attached). Then times raw block decode of a synthetic 16K-
// event block in both payload formats, v1 interleaved and v2 columnar,
// and exits 1 when v2 decodes slower than v1 at 2-byte address deltas.
// Feeds the "Trace I/O" and "Block decode throughput" sections of
// EXPERIMENTS.md.
//
// Usage: traceio_bench [scale 1..64]
//
//===----------------------------------------------------------------------===//

#include "common/BenchCommon.h"
#include "core/ProfilingSession.h"
#include "session/ProfileSession.h"
#include "support/Random.h"
#include "support/TablePrinter.h"
#include "support/Timer.h"
#include "support/VarInt.h"
#include "traceio/BlockCodec.h"
#include "traceio/TraceWriter.h"
#include "whomp/Whomp.h"
#include "workloads/Workload.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <sys/stat.h>

using namespace orp;

namespace {

uint64_t fileSize(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0
             ? static_cast<uint64_t>(St.st_size)
             : 0;
}

bool haveGzip() { return std::system("gzip --version >/dev/null 2>&1") == 0; }

constexpr uint64_t kDecodeEvents = 16384;

/// Encodes one synthetic block of kDecodeEvents accesses whose address
/// deltas each need exactly \p DeltaBytes sleb bytes, as the payload of
/// format version 1 (interleaved records, \p Payloads[0]) and of version
/// 2 (one length-prefixed column per field, \p Payloads[1]).
void makeDecodePayloads(unsigned DeltaBytes, std::vector<uint8_t> Payloads[2]) {
  // Largest magnitude an sleb of DeltaBytes still holds (6 payload bits
  // in the final byte, 7 in each before it); deltas draw from the upper
  // half of that range so every one encodes at the intended width.
  const uint64_t MaxMag = (1ull << (7 * DeltaBytes - 1)) - 1;
  Rng R(42);
  std::vector<uint8_t> Cols[5];
  uint64_t Addr = 1ull << 60, PrevAddr = 0;
  for (uint64_t I = 0; I != kDecodeEvents; ++I) {
    uint64_t Mag = MaxMag / 2 + 1 + R.nextBelow(MaxMag / 2);
    Addr = (I & 1) ? Addr - Mag : Addr + Mag;
    bool Store4 = I % 4 == 0; // Every fourth access is a 4-byte store.
    // Tag, instruction, address delta, time delta, elided-if-8 size: a
    // v1 record is these fields in a row, a v2 column is one of them.
    std::vector<uint8_t> Fields[5];
    Fields[0].push_back(traceio::kOpAccess |
                        (Store4 ? traceio::kTagStore : traceio::kTagSize8));
    encodeULEB128(R.nextBelow(512), Fields[1]);
    encodeSLEB128(static_cast<int64_t>(Addr - PrevAddr), Fields[2]);
    encodeSLEB128(1, Fields[3]);
    if (Store4)
      encodeULEB128(4, Fields[4]);
    PrevAddr = Addr;
    for (unsigned F = 0; F != 5; ++F) {
      Payloads[0].insert(Payloads[0].end(), Fields[F].begin(), Fields[F].end());
      Cols[F].insert(Cols[F].end(), Fields[F].begin(), Fields[F].end());
    }
  }
  for (const std::vector<uint8_t> &Col : Cols) {
    encodeULEB128(Col.size(), Payloads[1]);
    Payloads[1].insert(Payloads[1].end(), Col.begin(), Col.end());
  }
}

/// Prints v1 and v2 decode throughput at 1-, 2- and 8-byte address
/// deltas: per round each version decodes the block kRepeats times, v1
/// and v2 rounds alternate, and each version keeps its best round.
/// Returns false when a decode fails or v2 is slower than v1 at 2-byte
/// deltas.
bool decodeGate() {
  constexpr unsigned Rounds = 7, kRepeats = 64;
  TablePrinter T({"delta B", "v1 ev/s", "v2 ev/s", "v2/v1"});
  bool Ok = true;
  for (unsigned DeltaBytes : {1u, 2u, 8u}) {
    std::vector<uint8_t> Payloads[2];
    makeDecodePayloads(DeltaBytes, Payloads);
    traceio::DecodedBlock Out;
    std::string Err;
    double Best[2] = {0, 0};
    for (unsigned Round = 0; Round != Rounds; ++Round)
      for (unsigned V = 0; V != 2; ++V) {
        Timer Clock;
        for (unsigned I = 0; I != kRepeats; ++I)
          if (!traceio::decodeEventBlock(V + 1, Payloads[V].data(),
                                         Payloads[V].size(), kDecodeEvents,
                                         Out, Err)) {
            std::fprintf(stderr, "decode failed: %s\n", Err.c_str());
            return false;
          }
        double Secs = Clock.seconds();
        if (Round == 0 || Secs < Best[V])
          Best[V] = Secs;
      }
    double Events = static_cast<double>(kDecodeEvents) * kRepeats;
    double Speedup = Best[0] / Best[1];
    T.addRow({TablePrinter::fmt(static_cast<uint64_t>(DeltaBytes)),
              TablePrinter::fmt(static_cast<uint64_t>(Events / Best[0])),
              TablePrinter::fmt(static_cast<uint64_t>(Events / Best[1])),
              TablePrinter::fmt(Speedup, 2)});
    if (DeltaBytes == 2 && Speedup < 1.0)
      Ok = false;
  }
  std::printf("\nBlock decode: %llu-event access block, v1 interleaved vs. "
              "v2 columnar (best of %u rounds)\n",
              static_cast<unsigned long long>(kDecodeEvents), Rounds);
  T.print();
  if (!Ok)
    std::fprintf(stderr, "error: v2 decode is slower than v1 at 2-byte "
                         "address deltas\n");
  return Ok;
}

} // namespace

int main(int Argc, char **Argv) {
  uint64_t Scale = bench::parseScale(Argc, Argv);
  bool Gzip = haveGzip();
  if (!Gzip)
    std::printf("note: gzip not found; gzip column omitted\n");

  TablePrinter T({"workload", "events", "orpt B", "B/event", "text B",
                  Gzip ? "text.gz B" : "-", "orpt/gz", "replay ev/s",
                  "replay+whomp ev/s"});

  for (const char *Name :
       {"164.gzip-a", "181.mcf-a", "197.parser-a", "list-traversal"}) {
    std::string Base = "/tmp/orp_traceio_bench_" + std::string(Name);
    std::string OrptPath = Base + ".orpt";
    std::string TextPath = Base + ".txt";

    // Record.
    core::ProfilingSession Session;
    traceio::TraceWriter Writer(OrptPath, Session.registry(),
                                memsim::AllocPolicy::FirstFit, 0);
    if (!Writer.ok()) {
      std::fprintf(stderr, "%s\n", Writer.error().c_str());
      return 1;
    }
    Session.addRawSink(&Writer);
    auto W = workloads::createWorkloadByName(Name);
    workloads::WorkloadConfig Config;
    Config.Scale = Scale;
    W->run(Session.memory(), Session.registry(), Config);
    Session.finish();
    if (!Writer.close()) {
      std::fprintf(stderr, "%s\n", Writer.error().c_str());
      return 1;
    }

    // Naive text dump of the same stream.
    traceio::TraceReader Reader;
    if (!Reader.open(OrptPath)) {
      std::fprintf(stderr, "%s\n", Reader.error().c_str());
      return 1;
    }
    std::FILE *Text = std::fopen(TextPath.c_str(), "w");
    if (!Text) {
      std::fprintf(stderr, "cannot open %s\n", TextPath.c_str());
      return 1;
    }
    bool DumpOk = Reader.forEachEvent([&](const traceio::TraceEvent &E) {
      switch (E.K) {
      case traceio::TraceEvent::Kind::Access:
        std::fprintf(Text, "%c %u %llu %llu %llu\n", E.IsStore ? 'S' : 'L',
                     E.InstrOrSite, static_cast<unsigned long long>(E.Addr),
                     static_cast<unsigned long long>(E.Size),
                     static_cast<unsigned long long>(E.Time));
        break;
      case traceio::TraceEvent::Kind::Alloc:
        std::fprintf(Text, "%c %u %llu %llu %llu\n", E.IsStatic ? 'G' : 'A',
                     E.InstrOrSite, static_cast<unsigned long long>(E.Addr),
                     static_cast<unsigned long long>(E.Size),
                     static_cast<unsigned long long>(E.Time));
        break;
      case traceio::TraceEvent::Kind::Free:
        std::fprintf(Text, "F %llu %llu\n",
                     static_cast<unsigned long long>(E.Addr),
                     static_cast<unsigned long long>(E.Time));
        break;
      }
    });
    std::fclose(Text);
    if (!DumpOk) {
      std::fprintf(stderr, "replay failed: %s\n", Reader.error().c_str());
      return 1;
    }

    uint64_t OrptBytes = fileSize(OrptPath);
    uint64_t TextBytes = fileSize(TextPath);
    uint64_t GzBytes = 0;
    if (Gzip) {
      std::string Cmd = "gzip -9 -c '" + TextPath + "' > '" + TextPath +
                        ".gz' 2>/dev/null";
      if (std::system(Cmd.c_str()) == 0)
        GzBytes = fileSize(TextPath + ".gz");
    }

    // Replay throughput, bare (decode + inject only) and with a WHOMP
    // profiler downstream.
    uint64_t Events = Reader.info().TotalEvents;
    auto TimeReplay = [&](bool WithWhomp, double &Secs) {
      session::SessionConfig Config = session::recordedConfig(Reader);
      Config.EnableWhomp = WithWhomp;
      Config.EnableLeap = false;
      session::ProfileSession Fresh(Name, Config);
      Timer Clock;
      bool Ok = Fresh.replayFrom(Reader);
      (void)Fresh.finalize();
      Secs = Clock.seconds();
      if (!Ok)
        std::fprintf(stderr, "replay failed: %s\n", Fresh.error().c_str());
      return Ok;
    };
    double BareSecs, WhompSecs;
    if (!TimeReplay(false, BareSecs) || !TimeReplay(true, WhompSecs))
      return 1;

    T.addRow({Name, TablePrinter::fmt(Events), TablePrinter::fmt(OrptBytes),
              TablePrinter::fmt(
                  Events ? static_cast<double>(OrptBytes) / Events : 0.0, 2),
              TablePrinter::fmt(TextBytes),
              Gzip ? TablePrinter::fmt(GzBytes) : "-",
              GzBytes ? TablePrinter::fmt(
                            static_cast<double>(OrptBytes) / GzBytes, 2)
                      : "-",
              TablePrinter::fmt(static_cast<uint64_t>(
                  BareSecs > 0 ? Events / BareSecs : 0)),
              TablePrinter::fmt(static_cast<uint64_t>(
                  WhompSecs > 0 ? Events / WhompSecs : 0))});

    std::remove(OrptPath.c_str());
    std::remove(TextPath.c_str());
    std::remove((TextPath + ".gz").c_str());
  }

  std::printf("\nTrace I/O: .orpt size vs. naive text dump, and replay "
              "throughput (scale %llu)\n",
              static_cast<unsigned long long>(Scale));
  T.print();
  return decodeGate() ? 0 : 1;
}
