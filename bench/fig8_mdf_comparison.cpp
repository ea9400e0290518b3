//===- bench/fig8_mdf_comparison.cpp - Figure 8 reproduction -------------===//
//
// Figure 8 of the paper: "A comparison between the average error
// distributions of the LEAP and Connors profilers. The higher the peak
// at 0% error, the better." The paper's headline is a 56% improvement
// in the number of pairs detected completely correct or off by no more
// than 10%.
//
//===----------------------------------------------------------------------===//

#include "analysis/MdfError.h"
#include "common/BenchCommon.h"
#include "support/Statistics.h"
#include "support/TablePrinter.h"

#include <cstdio>

using namespace orp;
using namespace orp::bench;

int main(int Argc, char **Argv) {
  uint64_t Scale = parseScale(Argc, Argv);
  printHeader("Figure 8 — LEAP vs. Connors average error distribution",
              "LEAP detects 56% more pairs completely correct or within "
              "10% than the Connors window profiler.");

  Histogram LeapHist(-105.0, 105.0, 21);
  Histogram ConnorsHist(-105.0, 105.0, 21);
  for (const std::string &Name : specNames()) {
    MdfResults R = runMdfExperiment(Name, Scale);
    accumulate(LeapHist, analysis::compareMdf(R.Exact, R.Leap).ErrorHist);
    accumulate(ConnorsHist,
               analysis::compareMdf(R.Exact, R.Connors).ErrorHist);
  }

  // Side-by-side series, one row per 10%-wide error bucket.
  TablePrinter Table({"error bucket", "LEAP %", "Connors %", "LEAP",
                      "Connors"});
  for (unsigned B = 0; B != LeapHist.numBuckets(); ++B) {
    double Mid = (LeapHist.bucketLo(B) + LeapHist.bucketHi(B)) / 2;
    double LeapPct = percentOf(
        static_cast<double>(LeapHist.bucketCount(B)),
        static_cast<double>(LeapHist.total()));
    double ConnorsPct = percentOf(
        static_cast<double>(ConnorsHist.bucketCount(B)),
        static_cast<double>(ConnorsHist.total()));
    char Label[32];
    std::snprintf(Label, sizeof(Label), "%+.0f%%", Mid);
    Table.addRow({Label, TablePrinter::fmtPercent(LeapPct, 1),
                  TablePrinter::fmtPercent(ConnorsPct, 1), bar(LeapPct, 30),
                  bar(ConnorsPct, 30)});
  }
  Table.print();

  double LeapGood = 100.0 * LeapHist.fractionIn(-10.0, 10.0);
  double ConnorsGood = 100.0 * ConnorsHist.fractionIn(-10.0, 10.0);
  std::printf("\nCorrect-or-within-10%%: LEAP %.1f%%, Connors %.1f%%\n",
              LeapGood, ConnorsGood);
  if (ConnorsGood > 0.0)
    std::printf("LEAP improvement over Connors: %.0f%% (paper: 56%%)\n",
                percentOf(LeapGood - ConnorsGood, ConnorsGood));
  return 0;
}
