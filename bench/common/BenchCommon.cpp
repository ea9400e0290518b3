//===- bench/common/BenchCommon.cpp - Shared bench harness code ----------===//

#include "BenchCommon.h"

#include "analysis/Dependence.h"
#include "baseline/ConnorsProfiler.h"
#include "baseline/ExactDependence.h"
#include "support/Error.h"
#include "support/ParseNumber.h"
#include "support/Timer.h"
#include "traceio/TraceWriter.h"
#include "workloads/Workload.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdlib.h>

using namespace orp;
using namespace orp::bench;

const std::vector<std::string> &orp::bench::specNames() {
  static const std::vector<std::string> Names = {
      "164.gzip-a",  "175.vpr-a",   "181.mcf-a", "186.crafty-a",
      "197.parser-a", "256.bzip2-a", "300.twolf-a"};
  return Names;
}

uint64_t orp::bench::parseScale(int Argc, char **Argv) {
  if (Argc < 2)
    return 1;
  uint64_t Scale = 0;
  if (!support::parseUint64(Argv[1], Scale) || Scale < 1 || Scale > 64) {
    std::fprintf(stderr, "usage: %s [scale 1..64]\n", Argv[0]);
    std::exit(1);
  }
  return Scale;
}

ScratchDir::ScratchDir() {
  char Template[] = "/tmp/orp_bench_XXXXXX";
  if (!::mkdtemp(Template))
    ORP_FATAL_ERROR("cannot create a scratch directory under /tmp");
  Path = Template;
}

ScratchDir::~ScratchDir() {
  std::error_code Ignored;
  std::filesystem::remove_all(Path, Ignored);
}

double orp::bench::runWorkload(const std::string &Name,
                               const RunConfig &Config,
                               trace::MemoryInterface &Memory,
                               trace::InstructionRegistry &Registry) {
  auto W = workloads::createWorkloadByName(Name);
  if (!W)
    ORP_FATAL_ERROR("unknown workload name");
  workloads::WorkloadConfig WC;
  WC.Scale = Config.Scale;
  WC.Seed = Config.InputSeed;
  Timer T;
  W->run(Memory, Registry, WC);
  return T.seconds();
}

double orp::bench::runNative(const std::string &Name,
                             const RunConfig &Config) {
  trace::MemoryInterface Memory(Config.Policy, Config.EnvSeed);
  trace::InstructionRegistry Registry;
  return runWorkload(Name, Config, Memory, Registry);
}

std::unique_ptr<traceio::TraceReader>
orp::bench::recordTrace(const std::string &Name, const RunConfig &Config) {
  auto Reader = std::make_unique<traceio::TraceReader>();
  std::string Err;
  {
    ScratchDir Dir; // The reader's mapping outlives the file.
    const std::string Path = Dir.file("trace.orpt");
    trace::MemoryInterface Memory(Config.Policy, Config.EnvSeed);
    trace::InstructionRegistry Registry;
    traceio::TraceWriter Writer(Path, Registry, Config.Policy,
                                Config.EnvSeed);
    Memory.attachSink(&Writer);
    runWorkload(Name, Config, Memory, Registry);
    Memory.finish(); // Closes the writer.
    if (!Writer.ok())
      Err = Writer.error();
    else if (!Reader->open(Path))
      Err = Reader->error();
  }
  if (!Err.empty())
    ORP_FATAL_ERROR(("recording " + Name + ": " + Err).c_str());
  return Reader;
}

session::SessionConfig
orp::bench::sessionConfig(const traceio::TraceReader &Trace, bool Whomp,
                          bool Leap, unsigned MaxLmads) {
  session::SessionConfig Config = session::recordedConfig(Trace);
  Config.EnableWhomp = Whomp;
  Config.EnableLeap = Leap;
  Config.MaxLmads = MaxLmads;
  return Config;
}

double orp::bench::replay(session::ProfileSession &Session,
                          traceio::TraceReader &Trace,
                          session::SessionArtifacts *Artifacts) {
  Timer T;
  if (!Session.replayFrom(Trace))
    ORP_FATAL_ERROR(("replaying " + Session.name() + ": " +
                     Session.error()).c_str());
  session::SessionArtifacts A = Session.finalize();
  double Seconds = T.seconds();
  if (Artifacts)
    *Artifacts = std::move(A);
  return Seconds;
}

MdfResults orp::bench::runMdfExperiment(const std::string &Name,
                                        uint64_t Scale) {
  RunConfig Config;
  Config.Scale = Scale;
  auto Trace = recordTrace(Name, Config);
  baseline::ExactDependenceProfiler Exact; // Sinks outlive the session.
  baseline::ConnorsProfiler Connors;
  session::ProfileSession Session(
      Name, sessionConfig(*Trace, /*Whomp=*/false, /*Leap=*/true));
  Session.core().addRawSink(&Exact);
  Session.core().addRawSink(&Connors);
  replay(Session, *Trace);

  MdfResults Results;
  Results.Exact = Exact.mdf();
  Results.Leap =
      analysis::LeapDependenceAnalyzer(*Session.leap()).computeMdf();
  Results.Connors = Connors.mdf();
  return Results;
}

void orp::bench::accumulate(Histogram &Into, const Histogram &From) {
  for (unsigned B = 0; B != From.numBuckets(); ++B)
    Into.add((From.bucketLo(B) + From.bucketHi(B)) / 2, From.bucketCount(B));
}

void orp::bench::printHeader(const char *Experiment,
                             const char *PaperClaim) {
  std::printf("================================================================"
              "=====\n");
  std::printf("%s\n", Experiment);
  std::printf("Paper: %s\n", PaperClaim);
  std::printf("================================================================"
              "=====\n\n");
}

std::string orp::bench::bar(double Value, unsigned Width) {
  double Magnitude = Value < 0 ? -Value : Value;
  if (Magnitude > 100.0)
    Magnitude = 100.0;
  auto Chars = static_cast<unsigned>(Magnitude / 100.0 * Width + 0.5);
  return std::string(Chars, '#');
}
