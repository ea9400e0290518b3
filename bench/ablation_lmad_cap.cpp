//===- bench/ablation_lmad_cap.cpp - LMAD budget ablation (A1) -----------===//
//
// The paper fixes "a maximum of 30 LMADs for a given (instruction-id,
// group) pair", noting that "reducing the number of LMADs will reduce
// the running time, but affect the profile quality. Increasing the
// number of LMADs gives a less lossy profile but increases the running
// time." This ablation sweeps the cap and reports, per setting: profile
// size, MDF accuracy (correct-or-within-10%), stride score, sample
// quality and collection time (one LEAP-only replay of the recording:
// decode + inject + OMC translation + LEAP), over all 7 benchmarks.
//
//===----------------------------------------------------------------------===//

#include "analysis/Dependence.h"
#include "analysis/MdfError.h"
#include "analysis/Stride.h"
#include "baseline/ExactDependence.h"
#include "baseline/ExactStride.h"
#include "common/BenchCommon.h"
#include "support/Statistics.h"
#include "support/TablePrinter.h"

#include <cstdio>
#include <memory>

using namespace orp;
using namespace orp::bench;

int main(int Argc, char **Argv) {
  uint64_t Scale = parseScale(Argc, Argv);
  printHeader("Ablation A1 — LMAD budget per (instruction, group) pair",
              "The paper's cap of 30 balances quality and cost.");

  // Record each probe stream once and collect its exact references.
  struct PerBench {
    std::string Name;
    std::unique_ptr<traceio::TraceReader> Trace;
    analysis::MdfMap ExactMdf;
    analysis::StrideMap ExactStride;
  };
  std::vector<PerBench> Benches;
  for (const std::string &Name : specNames()) {
    RunConfig Config;
    Config.Scale = Scale;
    PerBench B{Name, recordTrace(Name, Config), {}, {}};
    baseline::ExactDependenceProfiler Exact; // Sinks outlive the session.
    baseline::ExactStrideProfiler Strides;
    session::ProfileSession Session(
        Name, sessionConfig(*B.Trace, /*Whomp=*/false, /*Leap=*/false));
    Session.core().addRawSink(&Exact);
    Session.core().addRawSink(&Strides);
    replay(Session, *B.Trace);
    B.ExactMdf = Exact.mdf();
    B.ExactStride = Strides.stronglyStrided();
    Benches.push_back(std::move(B));
  }

  TablePrinter Table({"max LMADs", "profile KB", "mdf within10%",
                      "stride score", "acc captured", "time/run"});
  for (unsigned Cap : {1, 2, 4, 8, 15, 30, 60, 120, 240}) {
    RunningStat Bytes, Mdf, Stride, Captured, Seconds;
    for (PerBench &B : Benches) {
      session::ProfileSession Session(
          B.Name, sessionConfig(*B.Trace, /*Whomp=*/false, /*Leap=*/true,
                                /*MaxLmads=*/Cap));
      Seconds.add(replay(Session, *B.Trace));
      const leap::LeapProfiler &Leap = *Session.leap();
      Bytes.add(static_cast<double>(Leap.serializedSizeBytes()));
      Captured.add(Leap.accessesCapturedPercent());

      auto Est = analysis::LeapDependenceAnalyzer(Leap).computeMdf();
      auto Cmp = analysis::compareMdf(B.ExactMdf, Est);
      Mdf.add(100.0 * Cmp.fractionCorrectOrWithin10());

      auto Found = analysis::findStronglyStrided(Leap);
      uint64_t Correct = 0;
      for (const auto &[Instr, Info] : B.ExactStride)
        if (Found.count(Instr))
          ++Correct;
      Stride.add(B.ExactStride.empty()
                     ? 100.0
                     : percentOf(static_cast<double>(Correct),
                                 static_cast<double>(
                                     B.ExactStride.size())));
    }
    Table.addRow({TablePrinter::fmt(uint64_t(Cap)),
                  TablePrinter::fmt(Bytes.sum() / 1024.0, 1),
                  TablePrinter::fmtPercent(Mdf.mean(), 1),
                  TablePrinter::fmtPercent(Stride.mean(), 1),
                  TablePrinter::fmtPercent(Captured.mean(), 1),
                  TablePrinter::fmt(Seconds.mean(), 3) + "s"});
  }
  Table.print();
  std::printf("\n(The paper's operating point is 30.)\n");
  return 0;
}
