//===- bench/traceio_bench.cpp - Trace size and replay throughput --------===//
//
// Measures the .orpt trace format against the obvious baseline — a naive
// one-line-per-event text dump, raw and gzip-compressed — and times
// replay (decode + re-drive a fresh session, with and without a WHOMP
// profiler attached). Every file lives in a bench::ScratchDir, private
// to the run and removed on every exit path. Feeds the "Trace I/O"
// section of EXPERIMENTS.md; block decode cost is perfbench's
// traceio.decode_ns_per_event.
//
// Usage: traceio_bench [scale 1..64]
//
//===----------------------------------------------------------------------===//

#include "common/BenchCommon.h"
#include "support/TablePrinter.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

using namespace orp;

int main(int Argc, char **Argv) {
  uint64_t Scale = bench::parseScale(Argc, Argv);
  bool Gzip = std::system("gzip --version >/dev/null 2>&1") == 0;
  if (!Gzip)
    std::printf("note: gzip not found; gzip column omitted\n");

  TablePrinter T({"workload", "events", "orpt B", "B/event", "text B",
                  Gzip ? "text.gz B" : "-", "orpt/gz", "replay ev/s",
                  "replay+whomp ev/s"});

  for (const char *Name :
       {"164.gzip-a", "181.mcf-a", "197.parser-a", "list-traversal"}) {
    bench::RunConfig Config;
    Config.Scale = Scale;
    auto Reader = bench::recordTrace(Name, Config);
    bench::ScratchDir Dir;
    const std::string TextPath = Dir.file("trace.txt");
    const std::string GzPath = Dir.file("trace.txt.gz");

    // Naive text dump of the same stream.
    std::FILE *Text = std::fopen(TextPath.c_str(), "w");
    if (!Text) {
      std::fprintf(stderr, "cannot open %s\n", TextPath.c_str());
      return 1;
    }
    bool DumpOk = Reader->forEachEvent([&](const traceio::TraceEvent &E) {
      if (E.K == traceio::TraceEvent::Kind::Free) {
        std::fprintf(Text, "F %llu %llu\n",
                     static_cast<unsigned long long>(E.Addr),
                     static_cast<unsigned long long>(E.Time));
        return;
      }
      char Tag = E.K == traceio::TraceEvent::Kind::Access
                     ? (E.IsStore ? 'S' : 'L')
                     : (E.IsStatic ? 'G' : 'A');
      std::fprintf(Text, "%c %u %llu %llu %llu\n", Tag, E.InstrOrSite,
                   static_cast<unsigned long long>(E.Addr),
                   static_cast<unsigned long long>(E.Size),
                   static_cast<unsigned long long>(E.Time));
    });
    std::fclose(Text);
    if (!DumpOk) {
      std::fprintf(stderr, "text dump failed: %s\n",
                   Reader->error().c_str());
      return 1;
    }

    uint64_t OrptBytes = Reader->info().FileBytes;
    auto SizeOf = [](const std::string &Path) -> uint64_t {
      std::error_code Err;
      uintmax_t Bytes = std::filesystem::file_size(Path, Err);
      return Err ? 0 : Bytes;
    };
    uint64_t TextBytes = SizeOf(TextPath);
    uint64_t GzBytes = 0;
    if (Gzip) {
      // Through stdin, so gzip's header stores no file name.
      std::string Cmd = "gzip -9 -c < '" + TextPath + "' > '" + GzPath +
                        "' 2>/dev/null";
      if (std::system(Cmd.c_str()) == 0)
        GzBytes = SizeOf(GzPath);
    }

    // Replay throughput, bare (decode + inject + OMC translation) and
    // with a WHOMP profiler downstream.
    uint64_t Events = Reader->info().TotalEvents;
    auto TimeReplay = [&](bool WithWhomp) {
      session::ProfileSession Fresh(
          Name, bench::sessionConfig(*Reader, WithWhomp, /*Leap=*/false));
      return bench::replay(Fresh, *Reader);
    };
    double BareSecs = TimeReplay(false);
    double WhompSecs = TimeReplay(true);

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
  }

  std::printf("\nTrace I/O: .orpt size vs. naive text dump, and replay "
              "throughput (scale %llu)\n",
              static_cast<unsigned long long>(Scale));
  T.print();
  return 0;
}
