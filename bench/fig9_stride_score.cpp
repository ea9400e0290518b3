//===- bench/fig9_stride_score.cpp - Figure 9 reproduction ---------------===//
//
// Figure 9 of the paper: "Stride score for LEAP" — the percentage of
// strongly-strided instructions (one stride covering >= 70% of an
// instruction's accesses, within objects) that LEAP identifies out of
// the "real" ones found by the lossless stride profiler. The paper
// reports an average of 88% across the benchmarks.
//
//===----------------------------------------------------------------------===//

#include "analysis/Stride.h"
#include "baseline/ExactStride.h"
#include "common/BenchCommon.h"
#include "support/Statistics.h"
#include "support/TablePrinter.h"

#include <cstdio>

using namespace orp;
using namespace orp::bench;

int main(int Argc, char **Argv) {
  uint64_t Scale = parseScale(Argc, Argv);
  printHeader("Figure 9 — strongly-strided instruction score",
              "LEAP correctly identifies ~88% of the strongly-strided "
              "instructions found by the lossless stride profiler.");

  TablePrinter Table(
      {"benchmark", "real strided", "LEAP found", "correct", "score", ""});
  RunningStat Scores;
  for (const std::string &Name : specNames()) {
    RunConfig Config;
    Config.Scale = Scale;
    auto Trace = recordTrace(Name, Config);
    baseline::ExactStrideProfiler Exact; // Outlives the session.
    session::ProfileSession Session(
        Name, sessionConfig(*Trace, /*Whomp=*/false, /*Leap=*/true));
    Session.core().addRawSink(&Exact);
    replay(Session, *Trace);

    analysis::StrideMap Real = Exact.stronglyStrided();
    analysis::StrideMap Found = analysis::findStronglyStrided(*Session.leap());
    uint64_t Correct = 0;
    for (const auto &[Instr, Info] : Real)
      if (Found.count(Instr))
        ++Correct;
    double Score = Real.empty()
                       ? 100.0
                       : percentOf(static_cast<double>(Correct),
                                   static_cast<double>(Real.size()));
    Scores.add(Score);
    Table.addRow({Name, TablePrinter::fmt(uint64_t(Real.size())),
                  TablePrinter::fmt(uint64_t(Found.size())),
                  TablePrinter::fmt(Correct),
                  TablePrinter::fmtPercent(Score, 1), bar(Score)});
  }
  Table.print();

  std::printf("\nAverage stride score: %.1f%% (paper: 88%%)\n",
              Scores.mean());
  return 0;
}
