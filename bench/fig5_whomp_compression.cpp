//===- bench/fig5_whomp_compression.cpp - Figure 5 reproduction ----------===//
//
// Figure 5 of the paper: "The compression ratio of the OMSG over the
// conventional raw address Sequitur grammar", plus the Section 3.2
// timing claim that OMSG collection time is about the same as RASG
// collection time (the paper measured OMSG 1% faster on average).
//
// For each of the 7 benchmark analogues this harness records the
// workload once and replays it twice: with WHOMP, and with the RASG
// baseline as a raw sink. It reports serialized profile sizes, the
// percent size reduction of OMSG relative to RASG (the paper's metric,
// average ~22%), and each replay's time. Both sides pay decode, inject
// and the CDC's OMC translation; on top, OMSG pays four grammars and
// the archive, RASG its two raw grammars.
//
//===----------------------------------------------------------------------===//

#include "baseline/RasgProfiler.h"
#include "common/BenchCommon.h"
#include "support/Statistics.h"
#include "support/TablePrinter.h"

#include <cstdio>

using namespace orp;
using namespace orp::bench;

namespace {

struct Result {
  size_t OmsgBytes;
  size_t RasgBytes;
  double OmsgSeconds;
  double RasgSeconds;
  uint64_t Accesses;
};

Result measureOne(const std::string &Name, uint64_t Scale) {
  RunConfig Config;
  Config.Scale = Scale;
  auto Trace = recordTrace(Name, Config);
  Result R;

  // OMSG collection: decode + inject + OMC translation + 4-way
  // horizontal decomposition + Sequitur per dimension.
  {
    session::ProfileSession Session(
        Name, sessionConfig(*Trace, /*Whomp=*/true, /*Leap=*/false));
    R.OmsgSeconds = replay(Session, *Trace);
    R.OmsgBytes = Session.whomp()->sizes().total();
    const core::CdcStats &Cdc = Session.core().cdc().stats();
    R.Accesses = Cdc.Translated + Cdc.Unknown;
  }

  // RASG collection: Sequitur over the raw (instruction, address)
  // stream, on the same decode + inject + translation path.
  {
    baseline::RasgProfiler Rasg; // Outlives the session.
    session::ProfileSession Session(
        Name, sessionConfig(*Trace, /*Whomp=*/false, /*Leap=*/false));
    Session.core().addRawSink(&Rasg);
    R.RasgSeconds = replay(Session, *Trace);
    R.RasgBytes = Rasg.serializedSizeBytes();
  }
  return R;
}

} // namespace

int main(int Argc, char **Argv) {
  uint64_t Scale = parseScale(Argc, Argv);
  printHeader("Figure 5 — OMSG vs. RASG lossless profile size",
              "OMSG is on average 22% more compact than RASG, at roughly "
              "equal collection time (OMSG ~1% faster).");

  TablePrinter Table({"benchmark", "accesses", "RASG bytes", "OMSG bytes",
                      "OMSG saves", "RASG time", "OMSG time", ""});
  RunningStat Savings;
  RunningStat TimeRatio;
  for (const std::string &Name : specNames()) {
    Result R = measureOne(Name, Scale);
    double SavePct = percentOf(static_cast<double>(R.RasgBytes) -
                                   static_cast<double>(R.OmsgBytes),
                               static_cast<double>(R.RasgBytes));
    Savings.add(SavePct);
    TimeRatio.add(R.OmsgSeconds / R.RasgSeconds);
    Table.addRow({Name, TablePrinter::fmt(R.Accesses),
                  TablePrinter::fmt(static_cast<uint64_t>(R.RasgBytes)),
                  TablePrinter::fmt(static_cast<uint64_t>(R.OmsgBytes)),
                  TablePrinter::fmtPercent(SavePct, 1),
                  TablePrinter::fmt(R.RasgSeconds, 3) + "s",
                  TablePrinter::fmt(R.OmsgSeconds, 3) + "s",
                  bar(SavePct)});
  }
  Table.print();

  std::printf("\nAverage OMSG size reduction over RASG: %.1f%% "
              "(paper: 22%%)\n",
              Savings.mean());
  std::printf("Average OMSG/RASG collection-time ratio: %.2f "
              "(paper: ~0.99)\n",
              TimeRatio.mean());
  return 0;
}
