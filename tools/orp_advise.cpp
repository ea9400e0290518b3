//===- tools/orp_advise.cpp - Advice generation and payoff CLI -----------===//
//
// Command-line front end over src/advisor: close the paper's
// profile -> decision -> payoff loop from the shell.
//
//   orp-advise advise <profiles>... -o FILE.orpa
//                     [--pool-min-objects=N] [--min-pairs=N]
//                     [--max-layout=N]
//   orp-advise simulate <trace.orpt> [--advice=FILE.orpa]
//                     [--policy=first-touch|lru|advised|all]
//                     [--fast-bytes=N] [--fast-fraction=PCT] [--json]
//                     [--metrics=PATH|-]
//   orp-advise version
//
// `advise` turns a detached profile pair — a .leap LEAP profile and a
// .omsa OMSG archive of the same run — into a ranked .orpa advice
// artifact. `simulate` replays a recorded .orpt trace through the
// two-tier memsim under each placement policy and reports what the
// advice bought (fast-tier hit rate, migrations avoided).
//
//===----------------------------------------------------------------------===//

#include "advisor/HotColdClassifier.h"
#include "advisor/Telemetry.h"
#include "advisor/TieredReplay.h"
#include "leap/LeapProfileData.h"
#include "support/LogSink.h"
#include "support/ParseNumber.h"
#include "support/TablePrinter.h"
#include "support/Version.h"
#include "telemetry/Registry.h"
#include "telemetry/Snapshot.h"
#include "traceio/TraceReader.h"
#include "whomp/OmsgArchive.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace orp;
using support::LogLevel;
using support::logMessage;

namespace {

int usage(const char *Argv0) {
  logMessage(
      LogLevel::Error,
      "usage: %s <command> ...\n"
      "  advise <profiles>... -o FILE.orpa           build a ranked advice "
      "artifact from a\n"
      "         [--pool-min-objects=N] [--min-pairs=N]  .leap + .omsa pair "
      "of the same run\n"
      "         [--max-layout=N]\n"
      "  simulate <trace.orpt> [--advice=FILE.orpa]  replay the trace "
      "through the two-tier\n"
      "         [--policy=first-touch|lru|advised|all]  memsim and report "
      "per-policy hit rates\n"
      "         [--fast-bytes=N] [--fast-fraction=PCT]  fast-tier size "
      "(default: 25%% of peak\n"
      "         [--json] [--metrics=PATH|-]          live bytes); --json "
      "for machine output\n"
      "  version                                     print version and "
      "build flags",
      Argv0);
  return 1;
}

/// Writes opaque, already-serialized artifact bytes to \p Path.
bool writeArtifactFile(const std::string &Path,
                       const std::vector<uint8_t> &Bytes) {
  // orp-analyze: allow(endian-io): opaque byte image; all field encoding
  // happened inside serialize().
  std::FILE *Out = std::fopen(Path.c_str(), "wb");
  if (!Out ||
      std::fwrite(Bytes.data(), 1, Bytes.size(), Out) != Bytes.size()) {
    logMessage(LogLevel::Error, "orp-advise: cannot write '%s'",
               Path.c_str());
    if (Out)
      std::fclose(Out);
    return false;
  }
  std::fclose(Out);
  return true;
}

/// Reads a whole artifact file into \p Bytes.
bool readArtifactFile(const std::string &Path, std::vector<uint8_t> &Bytes) {
  std::FILE *In = std::fopen(Path.c_str(), "rb");
  if (!In) {
    logMessage(LogLevel::Error, "orp-advise: cannot read '%s'",
               Path.c_str());
    return false;
  }
  uint8_t Buf[1 << 16];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), In)) != 0)
    Bytes.insert(Bytes.end(), Buf, Buf + N);
  bool Ok = !std::ferror(In);
  std::fclose(In);
  if (!Ok)
    logMessage(LogLevel::Error, "orp-advise: error reading '%s'",
               Path.c_str());
  return Ok;
}

const char *flagValue(const std::string &Arg, const char *Prefix) {
  size_t Len = std::strlen(Prefix);
  return Arg.compare(0, Len, Prefix) == 0 ? Arg.c_str() + Len : nullptr;
}

bool numericFlag(const char *Cmd, const char *Flag, const char *Text,
                 uint64_t &Out) {
  if (support::parseUint64(Text, Out))
    return true;
  logMessage(LogLevel::Error,
             "orp-advise %s: %s expects an unsigned integer, got '%s'", Cmd,
             Flag, Text);
  return false;
}

int cmdAdvise(int Argc, char **Argv) {
  std::vector<std::string> Inputs;
  std::string OutPath;
  advisor::ClassifierOptions Opts;
  for (int I = 0; I != Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "-o" && I + 1 != Argc) {
      OutPath = Argv[++I];
    } else if (const char *V = flagValue(Arg, "--pool-min-objects=")) {
      if (!numericFlag("advise", "--pool-min-objects", V,
                       Opts.PoolMinObjects))
        return 1;
    } else if (const char *V = flagValue(Arg, "--min-pairs=")) {
      if (!numericFlag("advise", "--min-pairs", V, Opts.MinPairCount))
        return 1;
    } else if (const char *V = flagValue(Arg, "--max-layout=")) {
      uint64_t N = 0;
      if (!numericFlag("advise", "--max-layout", V, N))
        return 1;
      Opts.MaxLayoutEntries = static_cast<size_t>(N);
    } else if (Arg[0] != '-') {
      Inputs.push_back(Arg);
    } else {
      logMessage(LogLevel::Error, "orp-advise advise: bad argument '%s'",
                 Arg.c_str());
      return 1;
    }
  }
  if (Inputs.empty() || OutPath.empty()) {
    logMessage(LogLevel::Error,
               "orp-advise advise: need input profiles and -o OUT.orpa");
    return 1;
  }

  // Sniff each input by magic: exactly one LEAP profile and one OMSG
  // archive make an advice run.
  leap::LeapProfileData Leap;
  whomp::OmsgArchive Omsg;
  bool HaveLeap = false, HaveOmsg = false;
  for (const std::string &Path : Inputs) {
    std::vector<uint8_t> Bytes;
    if (!readArtifactFile(Path, Bytes))
      return 1;
    std::string Err;
    if (Bytes.size() >= 4 &&
        std::equal(leap::LeapProfileData::kMagic,
                   leap::LeapProfileData::kMagic + 4, Bytes.begin())) {
      if (HaveLeap) {
        logMessage(LogLevel::Error,
                   "orp-advise advise: more than one LEAP profile");
        return 1;
      }
      if (!leap::LeapProfileData::deserialize(Bytes, Leap, Err)) {
        logMessage(LogLevel::Error, "orp-advise: %s: %s", Path.c_str(),
                   Err.c_str());
        return 1;
      }
      HaveLeap = true;
    } else if (Bytes.size() >= 4 &&
               std::equal(whomp::OmsgArchive::kMagic,
                          whomp::OmsgArchive::kMagic + 4, Bytes.begin())) {
      if (HaveOmsg) {
        logMessage(LogLevel::Error,
                   "orp-advise advise: more than one OMSG archive");
        return 1;
      }
      if (!whomp::OmsgArchive::deserialize(Bytes, Omsg, Err)) {
        logMessage(LogLevel::Error, "orp-advise: %s: %s", Path.c_str(),
                   Err.c_str());
        return 1;
      }
      HaveOmsg = true;
    } else {
      logMessage(LogLevel::Error,
                 "orp-advise advise: '%s' is neither a LEAP profile nor "
                 "an OMSG archive",
                 Path.c_str());
      return 1;
    }
  }
  if (!HaveLeap || !HaveOmsg) {
    logMessage(LogLevel::Error,
               "orp-advise advise: need one .leap and one .omsa input");
    return 1;
  }

  advisor::HotColdClassifier Classifier(Opts);
  advisor::AdvisorReport Report = Classifier.classify(Leap, Omsg);
  if (!writeArtifactFile(OutPath, Report.serialize()))
    return 1;

  std::printf("%s: %zu groups ranked (%zu hot, %zu pool candidates), "
              "%zu layout pairs, %zu prefetch candidates\n\n",
              OutPath.c_str(), Report.Placement.size(),
              Report.hotGroupCount(), Report.poolCandidateCount(),
              Report.Layout.size(), Report.Prefetch.size());

  TablePrinter Table({"rank", "group", "accesses", "footprint", "objects",
                      "density", "class"});
  size_t Shown = 0;
  for (const advisor::PlacementAdvice &P : Report.Placement) {
    if (Shown == 10)
      break;
    std::string Class = P.Hot ? "hot" : "cold";
    if (P.PoolCandidate)
      Class += "+pool";
    Table.addRow({TablePrinter::fmt(static_cast<uint64_t>(Shown)),
                  TablePrinter::fmt(static_cast<uint64_t>(P.Group)),
                  TablePrinter::fmt(P.AccessCount),
                  TablePrinter::fmt(P.FootprintBytes),
                  TablePrinter::fmt(P.ObjectCount),
                  TablePrinter::fmt(P.density(), 3), Class});
    ++Shown;
  }
  Table.print();
  return 0;
}

/// One simulate pass' row for the report.
struct PolicyRun {
  memsim::TierPolicy Policy;
  advisor::TieredSimResult Result;
};

int cmdSimulate(int Argc, char **Argv) {
  std::string TracePath, AdvicePath, MetricsPath;
  std::string PolicyArg = "all";
  uint64_t FastBytes = 0, FastFraction = 25;
  bool Json = false;
  for (int I = 0; I != Argc; ++I) {
    std::string Arg = Argv[I];
    if (const char *V = flagValue(Arg, "--advice=")) {
      AdvicePath = V;
    } else if (const char *V = flagValue(Arg, "--policy=")) {
      PolicyArg = V;
    } else if (const char *V = flagValue(Arg, "--fast-bytes=")) {
      if (!numericFlag("simulate", "--fast-bytes", V, FastBytes))
        return 1;
    } else if (const char *V = flagValue(Arg, "--fast-fraction=")) {
      if (!numericFlag("simulate", "--fast-fraction", V, FastFraction))
        return 1;
      if (FastFraction == 0 || FastFraction > 100) {
        logMessage(LogLevel::Error,
                   "orp-advise simulate: --fast-fraction expects a "
                   "percentage in [1, 100]");
        return 1;
      }
    } else if (const char *V = flagValue(Arg, "--metrics=")) {
      MetricsPath = V;
    } else if (Arg == "--json") {
      Json = true;
    } else if (Arg[0] != '-' && TracePath.empty()) {
      TracePath = Arg;
    } else {
      logMessage(LogLevel::Error, "orp-advise simulate: bad argument '%s'",
                 Arg.c_str());
      return 1;
    }
  }
  if (TracePath.empty()) {
    logMessage(LogLevel::Error, "orp-advise simulate: missing trace file");
    return 1;
  }

  advisor::AdvisorReport Report;
  bool HaveAdvice = false;
  if (!AdvicePath.empty()) {
    std::vector<uint8_t> Bytes;
    if (!readArtifactFile(AdvicePath, Bytes))
      return 1;
    std::string Err;
    if (!advisor::AdvisorReport::deserialize(Bytes, Report, Err)) {
      logMessage(LogLevel::Error, "orp-advise: %s: %s", AdvicePath.c_str(),
                 Err.c_str());
      return 1;
    }
    HaveAdvice = true;
  }

  std::vector<memsim::TierPolicy> Policies;
  if (PolicyArg == "all") {
    Policies = {memsim::TierPolicy::FirstTouch, memsim::TierPolicy::Lru};
    if (HaveAdvice)
      Policies.push_back(memsim::TierPolicy::Advised);
  } else if (PolicyArg == "first-touch") {
    Policies = {memsim::TierPolicy::FirstTouch};
  } else if (PolicyArg == "lru") {
    Policies = {memsim::TierPolicy::Lru};
  } else if (PolicyArg == "advised") {
    Policies = {memsim::TierPolicy::Advised};
  } else {
    logMessage(LogLevel::Error,
               "orp-advise simulate: --policy expects "
               "first-touch|lru|advised|all, got '%s'",
               PolicyArg.c_str());
    return 1;
  }
  if (std::count(Policies.begin(), Policies.end(),
                 memsim::TierPolicy::Advised) &&
      !HaveAdvice) {
    logMessage(LogLevel::Error,
               "orp-advise simulate: the advised policy needs "
               "--advice=FILE.orpa");
    return 1;
  }

  traceio::TraceReader Reader;
  if (!Reader.open(TracePath)) {
    logMessage(LogLevel::Error, "orp-advise: %s", Reader.error().c_str());
    return 1;
  }

  uint64_t PeakLive = 0;
  std::string Err;
  if (!advisor::peakLiveBytes(Reader, PeakLive, Err)) {
    logMessage(LogLevel::Error, "orp-advise: %s: %s", TracePath.c_str(),
               Err.c_str());
    return 1;
  }
  uint64_t Capacity =
      FastBytes ? FastBytes : PeakLive * FastFraction / 100;

  advisor::AdvisorTelemetry Bridge;
  if (HaveAdvice)
    Bridge.attachReport(&Report);

  std::vector<PolicyRun> Runs;
  for (memsim::TierPolicy Policy : Policies) {
    advisor::TieredSimOptions Opts;
    Opts.Policy = Policy;
    Opts.FastCapacityBytes = Capacity;
    Opts.Advice = HaveAdvice ? &Report : nullptr;
    PolicyRun Run;
    Run.Policy = Policy;
    if (!advisor::simulateTiered(Reader, Opts, Run.Result, Err)) {
      logMessage(LogLevel::Error, "orp-advise: %s: %s", TracePath.c_str(),
                 Err.c_str());
      return 1;
    }
    Runs.push_back(Run);
  }

  // The last pass' counters back the tiersim.* gauges (under --policy=all
  // with advice, that is the advised run).
  if (!Runs.empty())
    Bridge.attachTierStats(&Runs.back().Result.Stats);

  if (Json) {
    std::printf("{\n  \"trace\": \"%s\",\n", TracePath.c_str());
    std::printf("  \"peak_live_bytes\": %llu,\n",
                static_cast<unsigned long long>(PeakLive));
    std::printf("  \"fast_capacity_bytes\": %llu,\n",
                static_cast<unsigned long long>(Capacity));
    std::printf("  \"policies\": {\n");
    for (size_t I = 0; I != Runs.size(); ++I) {
      const memsim::TierStats &S = Runs[I].Result.Stats;
      std::printf(
          "    \"%s\": {\"fast_hits\": %llu, \"slow_hits\": %llu, "
          "\"fast_hit_rate\": %.6f, \"migrations\": %llu, "
          "\"fast_allocs\": %llu, \"slow_allocs\": %llu, "
          "\"fast_bytes_peak\": %llu, \"hot_groups\": %llu}%s\n",
          memsim::tierPolicyName(Runs[I].Policy),
          static_cast<unsigned long long>(S.FastHits),
          static_cast<unsigned long long>(S.SlowHits), S.fastHitRate(),
          static_cast<unsigned long long>(S.migrations()),
          static_cast<unsigned long long>(S.FastAllocs),
          static_cast<unsigned long long>(S.SlowAllocs),
          static_cast<unsigned long long>(Runs[I].Result.FastBytesPeak),
          static_cast<unsigned long long>(Runs[I].Result.HotGroupsSelected),
          I + 1 == Runs.size() ? "" : ",");
    }
    std::printf("  }\n}\n");
  } else {
    std::printf("%s: %llu accesses, %llu allocs, fast tier %llu bytes "
                "(peak live %llu)\n\n",
                TracePath.c_str(),
                static_cast<unsigned long long>(
                    Runs.empty() ? 0 : Runs.front().Result.Accesses),
                static_cast<unsigned long long>(
                    Runs.empty() ? 0 : Runs.front().Result.Allocs),
                static_cast<unsigned long long>(Capacity),
                static_cast<unsigned long long>(PeakLive));
    TablePrinter Table({"policy", "fast hits", "slow hits", "hit rate",
                        "migrations", "fast allocs", "hot groups"});
    for (const PolicyRun &Run : Runs) {
      const memsim::TierStats &S = Run.Result.Stats;
      Table.addRow(
          {memsim::tierPolicyName(Run.Policy), TablePrinter::fmt(S.FastHits),
           TablePrinter::fmt(S.SlowHits),
           TablePrinter::fmtPercent(S.fastHitRate() * 100.0, 1),
           TablePrinter::fmt(S.migrations()), TablePrinter::fmt(S.FastAllocs),
           TablePrinter::fmt(
               static_cast<uint64_t>(Run.Result.HotGroupsSelected))});
    }
    Table.print();
  }

  if (!MetricsPath.empty()) {
    telemetry::MetricsSnapshot S = telemetry::Registry::global().snapshot();
    std::string WriteErr;
    if (!telemetry::writeSnapshot(S, MetricsPath,
                                  telemetry::SnapshotFormat::Json,
                                  /*Append=*/false, WriteErr)) {
      logMessage(LogLevel::Error, "orp-advise: %s", WriteErr.c_str());
      return 1;
    }
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage(Argv[0]);
  std::string Cmd = Argv[1];
  if (Cmd == "advise")
    return cmdAdvise(Argc - 2, Argv + 2);
  if (Cmd == "simulate")
    return cmdSimulate(Argc - 2, Argv + 2);
  if (Cmd == "version" || Cmd == "--version") {
    support::printVersion("orp-advise");
    return 0;
  }
  return usage(Argv[0]);
}
