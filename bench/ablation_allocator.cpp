//===- bench/ablation_allocator.cpp - Allocator sensitivity (A4) ---------===//
//
// Section 1 lists three run-to-run artifacts: input-dependent
// footprints, allocator-library layout differences, and probe-induced
// static-data shifts. This ablation runs every benchmark under all four
// heap allocator policies (plus an environment-seed change) and
// measures how stable each lossless profile is: the RASG bytes vary
// with the environment while the OMSG bytes are identical, because the
// object-relative stream itself is identical (compared as whole OMSG
// archives, SessionArtifacts::Omsg).
//
//===----------------------------------------------------------------------===//

#include "baseline/RasgProfiler.h"
#include "common/BenchCommon.h"
#include "support/Statistics.h"
#include "support/TablePrinter.h"

#include <cmath>
#include <cstdio>

using namespace orp;
using namespace orp::bench;

int main(int Argc, char **Argv) {
  uint64_t Scale = parseScale(Argc, Argv);
  printHeader("Ablation A4 — allocator/environment sensitivity",
              "Raw-address profiles change with the environment; "
              "object-relative profiles do not.");

  struct Env {
    memsim::AllocPolicy Policy;
    uint64_t Seed;
  };
  const Env Envs[] = {{memsim::AllocPolicy::FirstFit, 0},
                      {memsim::AllocPolicy::FirstFit, 999},
                      {memsim::AllocPolicy::BestFit, 0},
                      {memsim::AllocPolicy::NextFit, 0},
                      {memsim::AllocPolicy::Segregated, 0}};

  TablePrinter Table({"benchmark", "RASG bytes", "RASG content stable",
                      "OMSG bytes", "OMSG content stable"});
  for (const std::string &Name : specNames()) {
    RunningStat RasgBytes;
    std::vector<std::vector<uint8_t>> RasgImages, OmsgArchives;
    uint64_t OmsgBytes = 0;
    for (const Env &E : Envs) {
      RunConfig Config;
      Config.Scale = Scale;
      Config.Policy = E.Policy;
      Config.EnvSeed = E.Seed;
      auto Trace = recordTrace(Name, Config);
      baseline::RasgProfiler Rasg; // Outlives the session.
      session::ProfileSession Session(
          Name, sessionConfig(*Trace, /*Whomp=*/true, /*Leap=*/false));
      Session.core().addRawSink(&Rasg);
      session::SessionArtifacts Artifacts;
      replay(Session, *Trace, &Artifacts);
      // Profile *content*: the environment moves every raw address, so
      // the RASG bytes change even when the grammar shape (and thus its
      // size) happens to coincide. The OMSG archive must be
      // byte-identical. The RASG size is that of its two images, each
      // grammar walked once.
      std::vector<uint8_t> RasgImage = Rasg.addressGrammar().serialize();
      std::vector<uint8_t> InstrImage =
          Rasg.instructionGrammar().serialize();
      RasgImage.insert(RasgImage.end(), InstrImage.begin(),
                       InstrImage.end());
      RasgBytes.add(static_cast<double>(RasgImage.size()));
      RasgImages.push_back(std::move(RasgImage));
      if (OmsgArchives.empty())
        OmsgBytes = Session.whomp()->sizes().total();
      OmsgArchives.push_back(std::move(Artifacts.Omsg));
    }
    bool RasgStable = true, OmsgStable = true;
    for (size_t I = 1; I != RasgImages.size(); ++I) {
      RasgStable &= RasgImages[I] == RasgImages.front();
      OmsgStable &= OmsgArchives[I] == OmsgArchives.front();
    }
    Table.addRow({Name, TablePrinter::fmt(uint64_t(RasgBytes.max())),
                  RasgStable ? "yes (unexpected!)" : "NO (run-dependent)",
                  TablePrinter::fmt(OmsgBytes),
                  OmsgStable ? "yes" : "NO"});
  }
  Table.print();
  std::printf("\n(5 environments per benchmark: first-fit x2 seeds, "
              "best-fit, next-fit, segregated.)\n");
  return 0;
}
