//===- bench/fig2_regularity_demo.cpp - Figures 1-3 reproduction ---------===//
//
// The paper's motivating Figures 1-3 as a runnable demonstration, on
// the linked-list micro-workload:
//
//  * Figure 1: the raw addresses of a linked-list traversal look
//    irregular and change from run to run (different allocator, seed);
//  * Figure 2/3: after object-relative translation the same accesses
//    become (instr, group, object, offset) tuples that are perfectly
//    regular and identical across every environment;
//  * quantitatively: the lossless profile sizes of each run. The RASG
//    encodes different addresses in every run (Ablation A4 shows its
//    content changing), though on this micro-workload its size happens
//    to coincide; the OMSG is byte-identical.
//
//===----------------------------------------------------------------------===//

#include "baseline/RasgProfiler.h"
#include "common/BenchCommon.h"
#include "support/TablePrinter.h"

#include <algorithm>
#include <cstdio>
#include <vector>

using namespace orp;
using namespace orp::bench;

namespace {

struct Captured {
  std::vector<trace::AccessEvent> Raw;
  std::vector<core::OrTuple> Tuples;
  size_t RasgBytes;
  size_t OmsgBytes;
};

struct TupleBuffer : core::OrTupleConsumer {
  std::vector<core::OrTuple> Tuples;
  void consume(const core::OrTuple &T) override { Tuples.push_back(T); }
};

Captured captureRun(memsim::AllocPolicy Policy, uint64_t EnvSeed) {
  RunConfig Config;
  Config.Policy = Policy;
  Config.EnvSeed = EnvSeed;
  auto Trace = recordTrace("list-traversal", Config);
  trace::BufferSink Raw; // Sinks and consumers outlive the session.
  TupleBuffer Tuples;
  baseline::RasgProfiler Rasg;
  session::ProfileSession Session(
      "list-traversal",
      sessionConfig(*Trace, /*Whomp=*/true, /*Leap=*/false));
  Session.core().addRawSink(&Raw);
  Session.core().addRawSink(&Rasg);
  Session.core().addConsumer(&Tuples);
  replay(Session, *Trace);
  return Captured{Raw.accesses(), Tuples.Tuples,
                  Rasg.serializedSizeBytes(),
                  Session.whomp()->sizes().total()};
}

} // namespace

int main() {
  printHeader("Figures 1-3 — confounding artifacts vs. object-relativity",
              "Raw linked-list addresses are irregular and run-dependent; "
              "object-relative tuples are regular and run-invariant.");

  struct Env {
    const char *Label;
    memsim::AllocPolicy Policy;
    uint64_t Seed;
  };
  const Env Envs[] = {
      {"run A: first-fit heap", memsim::AllocPolicy::FirstFit, 1},
      {"run B: first-fit, different environment",
       memsim::AllocPolicy::FirstFit, 777},
      {"run C: segregated-fit allocator library",
       memsim::AllocPolicy::Segregated, 1},
  };

  std::vector<Captured> Runs;
  for (const Env &E : Envs)
    Runs.push_back(captureRun(E.Policy, E.Seed));

  // Figure 1: the same source-level traversal, three environments.
  std::printf("Raw addresses of the first 8 node->next loads "
              "(the paper's Figure 1):\n\n");
  TablePrinter RawTable({"access", Envs[0].Label, Envs[1].Label,
                         Envs[2].Label});
  std::vector<std::vector<uint64_t>> NextLoads(Runs.size());
  // Instruction 3 is "list:load node->next" (see ListTraversal.cpp's
  // registration order).
  constexpr trace::InstrId LdNextInstr = 3;
  for (size_t R = 0; R != Runs.size(); ++R)
    for (const auto &E : Runs[R].Raw)
      if (E.Instr == LdNextInstr)
        NextLoads[R].push_back(E.Addr);
  for (int I = 0; I != 8; ++I) {
    std::vector<std::string> Row = {"#" + std::to_string(I + 1)};
    for (const std::vector<uint64_t> &Loads : NextLoads) {
      char Hex[32];
      std::snprintf(Hex, sizeof(Hex), "0x%llx",
                    static_cast<unsigned long long>(Loads[I]));
      Row.push_back(Hex);
    }
    RawTable.addRow(std::move(Row));
  }
  RawTable.print();

  // Figure 3: the object-relative view of the same accesses.
  std::printf("\nObject-relative stream of the first traversal steps "
              "(identical in all three runs — the paper's Figure 3):\n\n");
  TablePrinter OrTable({"instr", "group", "object", "offset", "time"});
  unsigned Shown = 0;
  for (size_t I = 0; I != Runs[0].Tuples.size() && Shown != 10; ++I) {
    const core::OrTuple &T = Runs[0].Tuples[I];
    if (T.Instr < 2)
      continue; // Skip init stores; show the traversal loads.
    OrTable.addRow({TablePrinter::fmt(uint64_t(T.Instr)),
                    TablePrinter::fmt(uint64_t(T.Group)),
                    TablePrinter::fmt(T.Object),
                    TablePrinter::fmt(T.Offset),
                    TablePrinter::fmt(T.Time)});
    ++Shown;
  }
  OrTable.print();

  // Run-to-run invariance.
  auto SameTuple = [](const core::OrTuple &X, const core::OrTuple &Y) {
    return X.Instr == Y.Instr && X.Group == Y.Group &&
           X.Object == Y.Object && X.Offset == Y.Offset;
  };
  auto SameAddr = [](const trace::AccessEvent &X,
                     const trace::AccessEvent &Y) { return X.Addr == Y.Addr; };
  bool TuplesIdentical = true, RawIdentical = true;
  for (const Captured &Run : Runs) {
    TuplesIdentical &= std::equal(Run.Tuples.begin(), Run.Tuples.end(),
                                  Runs[0].Tuples.begin(),
                                  Runs[0].Tuples.end(), SameTuple);
    RawIdentical &= std::equal(Run.Raw.begin(), Run.Raw.end(),
                               Runs[0].Raw.begin(), Runs[0].Raw.end(),
                               SameAddr);
  }

  std::printf("\nRaw address stream identical across runs:            %s\n",
              RawIdentical ? "yes (unexpected!)" : "no  (artifacts)");
  std::printf("Object-relative tuple stream identical across runs:  %s\n",
              TuplesIdentical ? "yes (artifacts factored out)" : "NO");

  std::printf("\nLossless profile sizes per run (bytes):\n\n");
  TablePrinter SizeTable({"run", "RASG (raw addresses)",
                          "OMSG (object-relative)"});
  for (size_t R = 0; R != Runs.size(); ++R)
    SizeTable.addRow({Envs[R].Label,
                      TablePrinter::fmt(uint64_t(Runs[R].RasgBytes)),
                      TablePrinter::fmt(uint64_t(Runs[R].OmsgBytes))});
  SizeTable.print();
  return 0;
}
