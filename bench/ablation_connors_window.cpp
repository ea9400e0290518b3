//===- bench/ablation_connors_window.cpp - Window-size ablation (A2) -----===//
//
// The paper sizes the Connors history window "such that it exhibits a
// running time similar to LEAP". This ablation sweeps the window size
// and reports MDF accuracy and run time per setting, aggregated over
// the 7 benchmarks — showing the accuracy/cost trade the paper's
// comparison point sits on. Time is one replay of the recording with
// only the Connors sink (decode + inject + OMC translation + Connors).
//
//===----------------------------------------------------------------------===//

#include "analysis/MdfError.h"
#include "baseline/ConnorsProfiler.h"
#include "baseline/ExactDependence.h"
#include "common/BenchCommon.h"
#include "support/Statistics.h"
#include "support/TablePrinter.h"

#include <cstdio>
#include <memory>

using namespace orp;
using namespace orp::bench;

int main(int Argc, char **Argv) {
  uint64_t Scale = parseScale(Argc, Argv);
  printHeader("Ablation A2 — Connors history-window size",
              "Accuracy grows with the window; the paper matches the "
              "window to LEAP's running time.");

  // Record each probe stream once and collect its exact reference.
  struct PerBench {
    std::string Name;
    std::unique_ptr<traceio::TraceReader> Trace;
    analysis::MdfMap ExactMdf;
  };
  std::vector<PerBench> Benches;
  for (const std::string &Name : specNames()) {
    RunConfig Config;
    Config.Scale = Scale;
    PerBench B{Name, recordTrace(Name, Config), {}};
    baseline::ExactDependenceProfiler Exact; // Outlives the session.
    session::ProfileSession Session(
        Name, sessionConfig(*B.Trace, /*Whomp=*/false, /*Leap=*/false));
    Session.core().addRawSink(&Exact);
    replay(Session, *B.Trace);
    B.ExactMdf = Exact.mdf();
    Benches.push_back(std::move(B));
  }

  TablePrinter Table({"window", "dep pairs found", "within10%",
                      "missed pairs", "time/run"});
  for (size_t Window : {4, 16, 64, 256, 1024, 4096, 16384}) {
    RunningStat Within, Seconds;
    uint64_t Found = 0, Missed = 0;
    for (PerBench &B : Benches) {
      baseline::ConnorsProfiler Connors(Window); // Outlives the session.
      session::ProfileSession Session(
          B.Name, sessionConfig(*B.Trace, /*Whomp=*/false, /*Leap=*/false));
      Session.core().addRawSink(&Connors);
      Seconds.add(replay(Session, *B.Trace));
      auto Est = Connors.mdf();
      Found += Est.size();
      auto Cmp = analysis::compareMdf(B.ExactMdf, Est);
      Within.add(100.0 * Cmp.fractionCorrectOrWithin10());
      for (const auto &[Pair, Freq] : B.ExactMdf)
        if (!Est.count(Pair))
          ++Missed;
    }
    Table.addRow({TablePrinter::fmt(uint64_t(Window)),
                  TablePrinter::fmt(Found),
                  TablePrinter::fmtPercent(Within.mean(), 1),
                  TablePrinter::fmt(Missed),
                  TablePrinter::fmt(Seconds.mean(), 3) + "s"});
  }
  Table.print();
  std::printf("\n(The comparison in Figures 7-8 uses window %u.)\n",
              unsigned(baseline::ConnorsProfiler::DefaultWindowSize));
  return 0;
}
