//===- bench/fig6_leap_mdf_error.cpp - Figure 6 reproduction -------------===//
//
// Figure 6 of the paper: "The error distribution of the LEAP memory-
// dependence results" — for every dependent (store, load) pair found by
// the lossless raw-address profiler, the error of LEAP's estimated
// dependence frequency, bucketed at 10% granularity. The paper reports
// that a dominating majority (75%) of the dependent pairs are either
// completely correct (center bucket) or off by no more than 10%.
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
  printHeader("Figure 6 — LEAP memory-dependence error distribution",
              "~75% of dependent pairs are exactly correct or off by no "
              "more than 10%.");

  Histogram Combined(-105.0, 105.0, 21);
  TablePrinter Table({"benchmark", "dep pairs", "exact-correct",
                      "within +-10%", "false pos"});
  RunningStat Within10;
  for (const std::string &Name : specNames()) {
    MdfResults R = runMdfExperiment(Name, Scale);
    analysis::MdfComparison Cmp = analysis::compareMdf(R.Exact, R.Leap);
    accumulate(Combined, Cmp.ErrorHist);
    Within10.add(100.0 * Cmp.fractionCorrectOrWithin10());
    Table.addRow({Name, TablePrinter::fmt(Cmp.DependentPairs),
                  TablePrinter::fmt(Cmp.ExactlyCorrect),
                  TablePrinter::fmtPercent(
                      100.0 * Cmp.fractionCorrectOrWithin10(), 1),
                  TablePrinter::fmt(Cmp.FalsePositivePairs)});
  }
  Table.print();

  std::printf("\nCombined error distribution over all benchmarks "
              "(error = LEAP - exact, percentage points):\n\n%s\n",
              Combined.renderAscii().c_str());
  std::printf("Dependent pairs exactly correct or within 10%%: %.1f%% "
              "(paper: ~75%%)\n",
              100.0 * Combined.fractionIn(-10.0, 10.0));
  return 0;
}
