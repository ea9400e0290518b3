//===- bench/ablation_decomposition.cpp - Decomposition ablation (A3) ----===//
//
// Section 2.2 claims the regularity gain comes from two separable
// steps: object-relative translation AND decomposition ("the resulting
// pattern tends to be simple and more regular. This regularity ... makes
// the resulting profile amenable to good compression"). This ablation
// isolates them by Sequitur-compressing three representations of the
// same run:
//
//   1. RASG            — raw (instruction, address) stream;
//   2. OR-undecomposed — object-relative tuples, all four dimensions
//                        interleaved into a single grammar;
//   3. OMSG            — object-relative, horizontally decomposed into
//                        one grammar per dimension (the paper's design).
//
//===----------------------------------------------------------------------===//

#include "baseline/RasgProfiler.h"
#include "common/BenchCommon.h"
#include "sequitur/Sequitur.h"
#include "support/Statistics.h"
#include "support/TablePrinter.h"

#include <cstdio>

using namespace orp;
using namespace orp::bench;

namespace {

/// Object-relative but undecomposed: the 4 tuple dimensions interleave
/// in one Sequitur grammar.
struct UndecomposedConsumer : core::OrTupleConsumer {
  sequitur::SequiturGrammar Grammar;
  void consume(const core::OrTuple &T) override {
    Grammar.append(T.Instr);
    Grammar.append(T.Group);
    Grammar.append(T.Object);
    Grammar.append(T.Offset);
  }
};

} // namespace

int main(int Argc, char **Argv) {
  uint64_t Scale = parseScale(Argc, Argv);
  printHeader("Ablation A3 — translation vs. decomposition",
              "Both object-relative translation and per-dimension "
              "decomposition contribute to OMSG's compression edge.");

  TablePrinter Table({"benchmark", "RASG", "OR undecomposed", "OMSG",
                      "transl. gain", "decomp. gain"});
  RunningStat TranslGain, DecompGain;
  for (const std::string &Name : specNames()) {
    RunConfig Config;
    Config.Scale = Scale;
    auto Trace = recordTrace(Name, Config);
    baseline::RasgProfiler Rasg; // Sinks and consumers outlive the session.
    UndecomposedConsumer Undecomposed;
    session::ProfileSession Session(
        Name, sessionConfig(*Trace, /*Whomp=*/true, /*Leap=*/false));
    Session.core().addRawSink(&Rasg);
    Session.core().addConsumer(&Undecomposed);
    replay(Session, *Trace);

    double RasgB = static_cast<double>(Rasg.serializedSizeBytes());
    double UndB =
        static_cast<double>(Undecomposed.Grammar.serializedSizeBytes());
    double OmsgB = static_cast<double>(Session.whomp()->sizes().total());
    double TGain = percentOf(RasgB - UndB, RasgB);
    double DGain = percentOf(UndB - OmsgB, UndB);
    TranslGain.add(TGain);
    DecompGain.add(DGain);
    Table.addRow({Name, TablePrinter::fmt(uint64_t(RasgB)),
                  TablePrinter::fmt(uint64_t(UndB)),
                  TablePrinter::fmt(uint64_t(OmsgB)),
                  TablePrinter::fmtPercent(TGain, 1),
                  TablePrinter::fmtPercent(DGain, 1)});
  }
  Table.print();
  std::printf("\nAverage size gain from object-relative translation "
              "alone: %.1f%%\n",
              TranslGain.mean());
  std::printf("Average further gain from horizontal decomposition: "
              "%.1f%%\n",
              DecompGain.mean());
  return 0;
}
