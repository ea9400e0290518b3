//===- examples/orp_profile.cpp - Command-line profiler driver -----------===//
//
// A small command-line front end over the whole library: run any bundled
// workload under any allocator, with any combination of profilers, and
// print their reports. Demonstrates the full public API including the
// extensions (pool splitting, phase detection, hot data streams, profile
// serialization).
//
//   orp_profile <workload> [options]
//     --alloc=first-fit|best-fit|next-fit|segregated
//     --seed=N           input seed          (default 42)
//     --env=N            environment seed    (default 0)
//     --scale=N          workload scale      (default 1)
//     --threads=N        profiler worker threads (default 1; results
//                        are byte-identical for any N)
//     --whomp            collect the lossless OMSG
//     --leap             collect the LEAP profile (default)
//     --lmads=N          LEAP descriptor budget (default 30)
//     --phases           phase-cognizant report
//     --hot-streams      hot data streams of the OMSG object dimension
//     --mdf              dependence-frequency report
//     --strides          strongly-strided instruction report
//     --record=FILE      also record the probe stream to a .orpt trace
//                        (replayable with tools/orp-trace)
//     --metrics=PATH     write the final telemetry snapshot ("-" = stdout)
//     --metrics-interval=N  also snapshot every N probe events (JSONL)
//     --metrics-format=json|json-lines|prometheus
//     --version          print version and build flags
//
// The profiling pipeline itself is one session::ProfileSession — the
// same engine `orp-trace replay` and the orp-traced daemon run — fed
// live by the workload instead of by a trace.
//
//===----------------------------------------------------------------------===//

#include "analysis/Dependence.h"
#include "analysis/HotStreams.h"
#include "analysis/Phases.h"
#include "analysis/Stride.h"
#include "core/ProfilingSession.h"
#include "leap/LeapProfileData.h"
#include "session/ProfileSession.h"
#include "support/LogSink.h"
#include "support/ParseNumber.h"
#include "support/TablePrinter.h"
#include "support/Version.h"
#include "telemetry/Registry.h"
#include "trace/MetricsTicker.h"
#include "traceio/TraceWriter.h"
#include "whomp/Whomp.h"
#include "workloads/Workload.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

using namespace orp;
using support::LogLevel;
using support::logMessage;

namespace {

struct Options {
  std::string Workload = "list-traversal";
  memsim::AllocPolicy Policy = memsim::AllocPolicy::FirstFit;
  uint64_t Seed = 42;
  uint64_t EnvSeed = 0;
  uint64_t Scale = 1;
  unsigned MaxLmads = 30;
  unsigned Threads = 1;
  bool RunWhomp = false;
  bool RunLeap = true;
  bool Phases = false;
  bool HotStreams = false;
  bool Mdf = false;
  bool Strides = false;
  std::string RecordPath;
  std::string MetricsPath;
  uint64_t MetricsInterval = 0;
  telemetry::SnapshotFormat MetricsFormat = telemetry::SnapshotFormat::Json;
  bool Version = false;
};

bool parseArgs(int Argc, char **Argv, Options &Opt) {
  for (int I = 1; I != Argc; ++I) {
    std::string Arg = Argv[I];
    auto Value = [&](const char *Prefix) -> const char * {
      size_t Len = std::strlen(Prefix);
      return Arg.compare(0, Len, Prefix) == 0 ? Arg.c_str() + Len
                                              : nullptr;
    };
    if (Arg[0] != '-') {
      Opt.Workload = Arg;
    } else if (const char *V = Value("--alloc=")) {
      if (!std::strcmp(V, "first-fit"))
        Opt.Policy = memsim::AllocPolicy::FirstFit;
      else if (!std::strcmp(V, "best-fit"))
        Opt.Policy = memsim::AllocPolicy::BestFit;
      else if (!std::strcmp(V, "next-fit"))
        Opt.Policy = memsim::AllocPolicy::NextFit;
      else if (!std::strcmp(V, "segregated"))
        Opt.Policy = memsim::AllocPolicy::Segregated;
      else
        return false;
    } else if (const char *V = Value("--seed=")) {
      if (!support::parseUint64(V, Opt.Seed))
        return false;
    } else if (const char *V = Value("--env=")) {
      if (!support::parseUint64(V, Opt.EnvSeed))
        return false;
    } else if (const char *V = Value("--scale=")) {
      if (!support::parseUint64(V, Opt.Scale))
        return false;
    } else if (const char *V = Value("--lmads=")) {
      if (!support::parseUnsigned(V, Opt.MaxLmads))
        return false;
    } else if (const char *V = Value("--threads=")) {
      if (!support::parseUnsigned(V, Opt.Threads) || Opt.Threads == 0)
        return false;
    } else if (Arg == "--version") {
      Opt.Version = true;
    } else if (Arg == "--whomp") {
      Opt.RunWhomp = true;
    } else if (Arg == "--leap") {
      Opt.RunLeap = true;
    } else if (Arg == "--phases") {
      Opt.Phases = true;
    } else if (Arg == "--hot-streams") {
      Opt.HotStreams = Opt.RunWhomp = true;
    } else if (Arg == "--mdf") {
      Opt.Mdf = Opt.RunLeap = true;
    } else if (Arg == "--strides") {
      Opt.Strides = Opt.RunLeap = true;
    } else if (const char *V = Value("--record=")) {
      Opt.RecordPath = V;
    } else if (const char *V = Value("--metrics=")) {
      Opt.MetricsPath = V;
    } else if (const char *V = Value("--metrics-interval=")) {
      if (!support::parseUint64(V, Opt.MetricsInterval))
        return false;
    } else if (const char *V = Value("--metrics-format=")) {
      if (!std::strcmp(V, "json"))
        Opt.MetricsFormat = telemetry::SnapshotFormat::Json;
      else if (!std::strcmp(V, "json-lines"))
        Opt.MetricsFormat = telemetry::SnapshotFormat::JsonCompact;
      else if (!std::strcmp(V, "prometheus"))
        Opt.MetricsFormat = telemetry::SnapshotFormat::Prometheus;
      else
        return false;
    } else {
      return false;
    }
  }
  return true;
}

/// Periodic snapshots force one-object-per-line so interval mode emits
/// a valid JSONL stream; Prometheus text is already line-oriented.
telemetry::SnapshotFormat periodicFormat(const Options &Opt) {
  return Opt.MetricsFormat == telemetry::SnapshotFormat::Prometheus
             ? telemetry::SnapshotFormat::Prometheus
             : telemetry::SnapshotFormat::JsonCompact;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opt;
  if (!parseArgs(Argc, Argv, Opt)) {
    logMessage(LogLevel::Error,
               "usage: %s <workload> [--alloc=POLICY] "
               "[--seed=N] [--env=N] [--scale=N] [--threads=N] "
               "[--whomp] [--leap] [--lmads=N] [--phases] "
               "[--hot-streams] [--mdf] [--strides] "
               "[--record=FILE] [--metrics=PATH|-] "
               "[--metrics-interval=N] [--metrics-format=FMT] "
               "[--version]",
               Argv[0]);
    return 1;
  }
  if (Opt.Version) {
    support::printVersion("orp_profile");
    return 0;
  }

  auto Workload = workloads::createWorkloadByName(Opt.Workload);
  if (!Workload) {
    logMessage(LogLevel::Error,
               "unknown workload '%s'; available: 164.gzip-a 175.vpr-a "
               "181.mcf-a 186.crafty-a 197.parser-a 256.bzip2-a "
               "300.twolf-a list-traversal",
               Opt.Workload.c_str());
    return 1;
  }

  // The extra sinks and consumers are declared before the session that
  // calls their onFinish() when it is destroyed, so every early return
  // below frees them after it.
  analysis::PhaseDetector Phases;
  trace::CountingSink Counter;
  std::unique_ptr<traceio::TraceWriter> Recorder;
  std::unique_ptr<trace::MetricsTicker> Ticker;

  // The pipeline is one ProfileSession — the same engine the trace
  // replay CLI and the orp-traced daemon run — fed live here.
  session::SessionConfig SessionCfg;
  SessionCfg.Policy = Opt.Policy;
  SessionCfg.Seed = Opt.EnvSeed;
  SessionCfg.EnableWhomp = Opt.RunWhomp;
  SessionCfg.EnableLeap = Opt.RunLeap;
  SessionCfg.MaxLmads = Opt.MaxLmads;
  SessionCfg.ProfilerThreads = Opt.Threads;
  session::ProfileSession Profile(Opt.Workload, SessionCfg);
  core::ProfilingSession &Session = Profile.core();

  Session.addRawSink(&Counter);
  if (!Opt.RecordPath.empty()) {
    Recorder = std::make_unique<traceio::TraceWriter>(
        Opt.RecordPath, Session.registry(), Opt.Policy, Opt.EnvSeed);
    if (!Recorder->ok()) {
      logMessage(LogLevel::Error, "%s", Recorder->error().c_str());
      return 1;
    }
    Session.addRawSink(Recorder.get());
  }
  if (Opt.MetricsInterval && !Opt.MetricsPath.empty()) {
    if (Opt.MetricsPath != "-") {
      // Truncate up front so the periodic appends start clean.
      std::FILE *Out = std::fopen(Opt.MetricsPath.c_str(), "wb");
      if (!Out) {
        logMessage(LogLevel::Error, "cannot open '%s' for writing",
                   Opt.MetricsPath.c_str());
        return 1;
      }
      std::fclose(Out);
    }
    Ticker = std::make_unique<trace::MetricsTicker>(
        Opt.MetricsInterval, [&Opt](const telemetry::MetricsSnapshot &S) {
          std::string Err;
          if (!telemetry::writeSnapshot(S, Opt.MetricsPath,
                                        periodicFormat(Opt),
                                        /*Append=*/true, Err))
            logMessage(LogLevel::Warn, "%s", Err.c_str());
        });
    Session.addRawSink(Ticker.get());
  }
  if (Opt.Phases)
    Session.addConsumer(&Phases);

  workloads::WorkloadConfig Config;
  Config.Seed = Opt.Seed;
  Config.Scale = Opt.Scale;
  uint64_t Checksum =
      Workload->run(Session.memory(), Session.registry(), Config);
  Profile.finalize();
  if (!Opt.MetricsPath.empty()) {
    telemetry::MetricsSnapshot S = telemetry::Registry::global().snapshot();
    telemetry::SnapshotFormat F =
        Opt.MetricsInterval ? periodicFormat(Opt) : Opt.MetricsFormat;
    std::string Err;
    if (!telemetry::writeSnapshot(S, Opt.MetricsPath, F,
                                  /*Append=*/Opt.MetricsInterval != 0, Err)) {
      logMessage(LogLevel::Error, "%s", Err.c_str());
      return 1;
    }
  }
  if (Recorder) {
    if (!Recorder->close()) {
      logMessage(LogLevel::Error, "%s", Recorder->error().c_str());
      return 1;
    }
    std::printf("recorded %llu events to %s (%llu bytes)\n",
                static_cast<unsigned long long>(Recorder->eventsWritten()),
                Opt.RecordPath.c_str(),
                static_cast<unsigned long long>(Recorder->bytesWritten()));
  }

  std::printf("%s: %llu accesses (%llu loads, %llu stores), "
              "%llu allocs, checksum %llu, allocator %s\n\n",
              Workload->name(),
              static_cast<unsigned long long>(Counter.accesses()),
              static_cast<unsigned long long>(Counter.loads()),
              static_cast<unsigned long long>(Counter.stores()),
              static_cast<unsigned long long>(Counter.allocs()),
              static_cast<unsigned long long>(Checksum),
              memsim::allocPolicyName(Opt.Policy));

  if (Opt.RunLeap) {
    leap::LeapProfiler &Leap = *Profile.leap();
    auto Data = leap::LeapProfileData::fromProfiler(Leap);
    std::printf("LEAP: %zu substreams, %zu profile bytes "
                "(trace %llu bytes, %.0fx), %.1f%% accesses / %.1f%% "
                "instructions captured\n",
                Data.substreams().size(), Data.serialize().size(),
                static_cast<unsigned long long>(Counter.rawTraceBytes()),
                static_cast<double>(Counter.rawTraceBytes()) /
                    static_cast<double>(Leap.serializedSizeBytes()),
                Leap.accessesCapturedPercent(),
                Leap.instructionsCapturedPercent());
  }
  if (Opt.RunWhomp) {
    whomp::OmsgSizes S = Profile.whomp()->sizes();
    std::printf("WHOMP OMSG: %zu bytes (instr %zu, group %zu, object "
                "%zu, offset %zu)\n",
                S.total(), S.Instr, S.Group, S.Object, S.Offset);
  }

  if (Opt.Mdf) {
    std::printf("\ndependence frequencies (LEAP estimate):\n");
    TablePrinter T({"store", "load", "MDF"});
    for (const auto &[Pair, Freq] :
         analysis::LeapDependenceAnalyzer(*Profile.leap()).computeMdf())
      T.addRow({Session.registry().instruction(Pair.first).Name,
                Session.registry().instruction(Pair.second).Name,
                TablePrinter::fmtPercent(Freq * 100.0, 1)});
    T.print();
  }

  if (Opt.Strides) {
    std::printf("\nstrongly-strided instructions (>= 70%% one stride):\n");
    TablePrinter T({"instruction", "stride", "share"});
    for (const auto &[Instr, Info] :
         analysis::findStronglyStrided(*Profile.leap()))
      T.addRow({Session.registry().instruction(Instr).Name,
                std::to_string(Info.Stride),
                TablePrinter::fmtPercent(Info.Share * 100.0, 1)});
    T.print();
  }

  if (Opt.Phases) {
    std::printf("\nphases (interval 10000 accesses):\n");
    TablePrinter T({"phase", "class", "accesses", "dominant group"});
    unsigned Index = 0;
    for (const auto &P : Phases.phases()) {
      std::string Dominant = "-";
      if (!P.DominantGroups.empty()) {
        auto Site = Session.omc().siteForGroup(P.DominantGroups[0].first);
        Dominant = Session.registry().allocSite(Site).Name;
      }
      T.addRow({std::to_string(Index++), std::to_string(P.ClassId),
                TablePrinter::fmt(P.Accesses), Dominant});
    }
    T.print();
  }

  if (Opt.HotStreams) {
    std::printf("\nhot data streams (object dimension of the OMSG):\n");
    auto Streams = analysis::extractHotStreams(
        Profile.whomp()->imageFor(core::Dimension::Object));
    TablePrinter T({"rule", "length", "repeats", "heat"});
    unsigned Shown = 0;
    for (const auto &H : Streams) {
      if (Shown++ == 10)
        break;
      T.addRow({std::to_string(H.RuleId), TablePrinter::fmt(H.Length),
                TablePrinter::fmt(H.Occurrences),
                TablePrinter::fmt(H.Heat)});
    }
    T.print();
  }
  return 0;
}
