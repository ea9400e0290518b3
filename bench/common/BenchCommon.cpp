//===- bench/common/BenchCommon.cpp - Shared bench harness code ----------===//

#include "BenchCommon.h"

#include "support/Error.h"
#include "support/ParseNumber.h"
#include "support/Timer.h"

#include <cstdio>
#include <cstdlib>

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

double orp::bench::runInSession(core::ProfilingSession &Session,
                                const std::string &Name,
                                const RunConfig &Config) {
  auto W = workloads::createWorkloadByName(Name);
  if (!W)
    ORP_FATAL_ERROR("unknown workload name");
  workloads::WorkloadConfig WC;
  WC.Scale = Config.Scale;
  WC.Seed = Config.InputSeed;
  Timer T;
  W->run(Session.memory(), Session.registry(), WC);
  Session.finish();
  return T.seconds();
}

double orp::bench::runNative(const std::string &Name,
                             const RunConfig &Config) {
  core::ProfilingSession Session(Config.Policy, Config.EnvSeed);
  // No sinks attached: probes reduce to a counter increment, the
  // closest software analogue of running the uninstrumented binary.
  auto W = workloads::createWorkloadByName(Name);
  if (!W)
    ORP_FATAL_ERROR("unknown workload name");
  workloads::WorkloadConfig WC;
  WC.Scale = Config.Scale;
  WC.Seed = Config.InputSeed;
  Timer T;
  W->run(Session.memory(), Session.registry(), WC);
  return T.seconds();
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
