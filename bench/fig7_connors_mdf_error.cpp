//===- bench/fig7_connors_mdf_error.cpp - Figure 7 reproduction ----------===//
//
// Figure 7 of the paper: "The error distribution of the Connors memory-
// dependence results" — the same evaluation as Figure 6, for the
// re-implemented window-based profiler of Connors. The paper observes
// that "while not overestimating the frequency for any dependent pairs,
// this scheme often misses some of the dependences as it identifies
// dependences only in a small window of instructions".
//
//===----------------------------------------------------------------------===//

#include "analysis/MdfError.h"
#include "common/BenchCommon.h"
#include "support/TablePrinter.h"

#include <cstdio>

using namespace orp;
using namespace orp::bench;

int main(int Argc, char **Argv) {
  uint64_t Scale = parseScale(Argc, Argv);
  printHeader("Figure 7 — Connors window-profiler error distribution",
              "Never overestimates; misses dependences beyond the history "
              "window (heavy mass on the negative side).");

  Histogram Combined(-105.0, 105.0, 21);
  TablePrinter Table({"benchmark", "dep pairs", "exact-correct",
                      "within +-10%", "overestimated"});
  for (const std::string &Name : specNames()) {
    MdfResults R = runMdfExperiment(Name, Scale);
    analysis::MdfComparison Cmp = analysis::compareMdf(R.Exact, R.Connors);
    uint64_t Overestimated = 0;
    for (const auto &[Pair, Freq] : R.Connors) {
      auto It = R.Exact.find(Pair);
      if (It != R.Exact.end() && Freq > It->second + 1e-12)
        ++Overestimated;
    }
    accumulate(Combined, Cmp.ErrorHist);
    Table.addRow({Name, TablePrinter::fmt(Cmp.DependentPairs),
                  TablePrinter::fmt(Cmp.ExactlyCorrect),
                  TablePrinter::fmtPercent(
                      100.0 * Cmp.fractionCorrectOrWithin10(), 1),
                  TablePrinter::fmt(Overestimated)});
  }
  Table.print();

  std::printf("\nCombined error distribution over all benchmarks "
              "(error = Connors - exact, percentage points):\n\n%s\n",
              Combined.renderAscii().c_str());
  std::printf("Dependent pairs exactly correct or within 10%%: %.1f%%\n",
              100.0 * Combined.fractionIn(-10.0, 10.0));
  std::printf("Mass on the positive side (overestimates): %.2f%% "
              "(paper: none)\n",
              100.0 * Combined.fractionIn(15.0, 105.0));
  return 0;
}
