//===- bench/table1_leap_metrics.cpp - Table 1 reproduction --------------===//
//
// Table 1 of the paper: "LEAP profile size, speed, and sample quality"
// — per benchmark, the compression ratio of the LEAP profile relative
// to the raw trace (paper average 3539x), the time dilation of the
// instrumented run over the native run (paper average 11.5x), and the
// two sample-quality metrics: the percentage of all memory accesses
// captured inside LMADs (paper average 46.5%) and the percentage of
// instructions whose behavior was completely captured (paper average
// 40.5%).
//
//===----------------------------------------------------------------------===//

#include "common/BenchCommon.h"
#include "support/Statistics.h"
#include "support/TablePrinter.h"
#include "support/Timer.h"

#include <cstdio>

using namespace orp;
using namespace orp::bench;

int main(int Argc, char **Argv) {
  uint64_t Scale = parseScale(Argc, Argv);
  printHeader("Table 1 — LEAP profile size, speed, and sample quality",
              "Avg compression 3539x, dilation 11.5x, 46.5% accesses / "
              "40.5% instructions captured.");

  TablePrinter Table({"benchmark", "compression", "dilation",
                      "accesses captured", "instrs captured"});
  RunningStat Compression, Dilation, AccessQ, InstrQ;
  for (const std::string &Name : specNames()) {
    RunConfig Config;
    Config.Scale = Scale;

    // Native run: a bare runtime with no sinks (the dilation baseline).
    // Take the fastest of a few runs to reduce scheduler noise.
    double NativeSecs = 1e9;
    for (int Rep = 0; Rep != 3; ++Rep) {
      double Secs = runNative(Name, Config);
      NativeSecs = Secs < NativeSecs ? Secs : NativeSecs;
    }

    // Instrumented run: the workload live inside a LEAP-only
    // ProfileSession (probes + OMC + CDC + vertical decomposition +
    // LMAD compression). Live, not replayed: dilation measures the
    // probes, which a replay does not pay.
    session::SessionConfig Live;
    Live.Policy = Config.Policy;
    Live.Seed = Config.EnvSeed;
    Live.EnableWhomp = false;
    Live.MaxLmads = kPaperMaxLmads;
    trace::CountingSink Counter; // Outlives the session.
    session::ProfileSession Session(Name, Live);
    Session.core().addRawSink(&Counter);
    Timer T;
    runWorkload(Name, Config, Session.core().memory(),
                Session.core().registry());
    (void)Session.finalize();
    double ProfiledSecs = T.seconds();
    const leap::LeapProfiler &Leap = *Session.leap();

    double Ratio = static_cast<double>(Counter.rawTraceBytes()) /
                   static_cast<double>(Leap.serializedSizeBytes());
    double Dila = ProfiledSecs / NativeSecs;
    double AccPct = Leap.accessesCapturedPercent();
    double InsPct = Leap.instructionsCapturedPercent();
    Compression.add(Ratio);
    Dilation.add(Dila);
    AccessQ.add(AccPct);
    InstrQ.add(InsPct);
    Table.addRow({Name, TablePrinter::fmtRatio(Ratio),
                  TablePrinter::fmtRatio(Dila, 1),
                  TablePrinter::fmtPercent(AccPct, 1),
                  TablePrinter::fmtPercent(InsPct, 1)});
  }
  Table.addRow({"Average", TablePrinter::fmtRatio(Compression.mean()),
                TablePrinter::fmtRatio(Dilation.mean(), 1),
                TablePrinter::fmtPercent(AccessQ.mean(), 1),
                TablePrinter::fmtPercent(InstrQ.mean(), 1)});
  Table.print();

  std::printf("\nPaper averages: 3539x compression, 11.5x dilation, "
              "46.5%% accesses, 40.5%% instructions.\n");
  return 0;
}
