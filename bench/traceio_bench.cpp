//===- bench/traceio_bench.cpp - Trace size and replay throughput --------===//
//
// Measures the .orpt trace format against the obvious baseline — a naive
// one-line-per-event text dump, raw and gzip-compressed — and times
// replay (decode + re-drive a fresh session, with and without a WHOMP
// profiler attached). Feeds the "Trace I/O" section of EXPERIMENTS.md;
// block decode cost is perfbench's traceio.decode_ns_per_event.
//
// Usage: traceio_bench [scale 1..64]
//
//===----------------------------------------------------------------------===//

#include "common/BenchCommon.h"
#include "core/ProfilingSession.h"
#include "session/ProfileSession.h"
#include "support/TablePrinter.h"
#include "support/Timer.h"
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
  return 0;
}
