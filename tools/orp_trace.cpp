//===- tools/orp_trace.cpp - Record/replay trace CLI ---------------------===//
//
// Command-line front end over src/traceio: capture a workload's probe
// event stream into a .orpt file, inspect and verify trace files, and
// replay them through any of the profilers. Record once, analyze
// anywhere — replayed profiles are bit-identical to live runs.
//
//   orp-trace record <workload> [-o FILE] [--alloc=POLICY] [--seed=N]
//                    [--env=N] [--scale=N] [--block-bytes=N]
//   orp-trace replay <file> [--profiler=whomp|leap|rasg] [--lmads=N]
//                    [--dump-omsg=FILE] [--dump-leap=FILE]
//                    [--end-block=N] [--resume-from=CK]
//                    [--checkpoint-every=N] [--checkpoint-out=PATH]
//                    [--metrics=PATH|-]
//                    [--metrics-interval=N] [--metrics-format=FMT]
//   orp-trace merge <in>... -o OUT [--sequential]
//   orp-trace diff <a> <b>
//   orp-trace stats <file> [--threads=N] [--lmads=N] [--metrics=PATH|-]
//                    [--metrics-format=FMT]
//   orp-trace submit <file> --socket=PATH [--name=NAME] [--lmads=N]
//                    [--print-snapshot=FMT] [--dump-omsg=FILE]
//                    [--dump-leap=FILE]
//   orp-trace info <file> [--blocks]
//   orp-trace verify <file>
//   orp-trace version
//
// replay/stats drive the same single-session engine (src/session) the
// orp-traced daemon runs many of; submit streams a trace into a running
// daemon instead. Both paths produce byte-identical profiles.
//
//===----------------------------------------------------------------------===//

#include "advisor/HotColdClassifier.h"
#include "advisor/Telemetry.h"
#include "baseline/RasgProfiler.h"
#include "core/ProfilingSession.h"
#include "leap/LeapProfileData.h"
#include "session/Client.h"
#include "support/LogSink.h"
#include "support/ParseNumber.h"
#include "support/TablePrinter.h"
#include "support/Version.h"
#include "telemetry/Registry.h"
#include "trace/MetricsTicker.h"
#include "traceio/TraceWriter.h"
#include "whomp/OmsgArchive.h"
#include "whomp/OmsgStats.h"
#include "whomp/Whomp.h"
#include "workloads/Workload.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
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
      "  record <workload> [-o FILE] [--alloc=first-fit|best-fit|"
      "next-fit|segregated]\n"
      "         [--seed=N] [--env=N] [--scale=N]     capture a run "
      "(default FILE: <workload>.orpt)\n"
      "         [--block-bytes=N]                    target event-block "
      "payload size\n"
      "  replay <file> [--profiler=whomp|leap|rasg] [--lmads=N] "
      "[--threads=N]\n"
      "         [--dump-omsg=FILE] [--dump-leap=FILE]  re-drive profilers "
      "from a trace\n"
      "                                              (--threads output is "
      "byte-identical)\n"
      "         [--end-block=N]                      stop before block N "
      "(a segment replay)\n"
      "         [--resume-from=CK]                   restore an .orck "
      "checkpoint, replay the rest\n"
      "         [--checkpoint-every=N] [--checkpoint-out=PATH]  write "
      ".orck checkpoints\n"
      "                                              (every N blocks at "
      "PATH.<block>.orck, or\n"
      "                                              once at the range "
      "end at PATH)\n"
      "         [--metrics=PATH|-] [--metrics-interval=N] "
      "[--metrics-format=json|json-lines|prometheus]\n"
      "  merge <in>... -o OUT [--sequential]         fold profile "
      "artifacts: consecutive trace\n"
      "                                              segments with "
      "--sequential (exact), else\n"
      "                                              independent runs "
      "(LEAP union / OMST stats)\n"
      "  diff <a> <b>                                compare two "
      "artifacts (exit 0 identical,\n"
      "                                              1 different, 2 "
      "unreadable)\n"
      "  stats <file> [--threads=N] [--lmads=N]      replay through "
      "WHOMP+LEAP and print\n"
      "         [--metrics=PATH|-] [--metrics-format=FMT]   the telemetry "
      "snapshot\n"
      "  submit <file> --socket=PATH                 stream a trace into a "
      "running orp-traced\n"
      "         [--name=NAME] [--lmads=N] [--print-snapshot=json|"
      "json-lines|prometheus]\n"
      "         [--dump-omsg=FILE] [--dump-leap=FILE]\n"
      "  info <file> [--blocks]                      print header, stream "
      "and per-block statistics\n"
      "  verify <file>                               validate structure "
      "and checksums\n"
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
    logMessage(LogLevel::Error, "orp-trace: cannot write '%s'",
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
    logMessage(LogLevel::Error, "orp-trace: cannot read '%s'", Path.c_str());
    return false;
  }
  uint8_t Buf[1 << 16];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), In)) != 0)
    Bytes.insert(Bytes.end(), Buf, Buf + N);
  bool Ok = !std::ferror(In);
  std::fclose(In);
  if (!Ok)
    logMessage(LogLevel::Error, "orp-trace: error reading '%s'",
               Path.c_str());
  return Ok;
}

/// The artifact families the merge/diff verbs understand, sniffed from
/// the four-byte magic.
enum class ArtifactKind { Leap, Omsa, Omst, Unknown };

ArtifactKind sniffArtifact(const std::vector<uint8_t> &Bytes) {
  if (Bytes.size() < 4)
    return ArtifactKind::Unknown;
  if (std::equal(leap::LeapProfileData::kMagic,
                 leap::LeapProfileData::kMagic + 4, Bytes.begin()))
    return ArtifactKind::Leap;
  if (std::equal(whomp::OmsgArchive::kMagic, whomp::OmsgArchive::kMagic + 4,
                 Bytes.begin()))
    return ArtifactKind::Omsa;
  if (std::equal(whomp::OmsgStats::kMagic, whomp::OmsgStats::kMagic + 4,
                 Bytes.begin()))
    return ArtifactKind::Omst;
  return ArtifactKind::Unknown;
}

const char *artifactKindName(ArtifactKind K) {
  switch (K) {
  case ArtifactKind::Leap:
    return "LEAP profile";
  case ArtifactKind::Omsa:
    return "OMSG archive";
  case ArtifactKind::Omst:
    return "OMSG statistics";
  case ArtifactKind::Unknown:
    break;
  }
  return "unknown";
}

const char *flagValue(const std::string &Arg, const char *Prefix) {
  size_t Len = std::strlen(Prefix);
  return Arg.compare(0, Len, Prefix) == 0 ? Arg.c_str() + Len : nullptr;
}

/// Parses the numeric value of \p Flag strictly (whole string, no
/// overflow; see support::parseUint64), reporting a usage error via the
/// log sink when it is malformed.
bool numericFlag(const char *Cmd, const char *Flag, const char *Text,
                 uint64_t &Out) {
  if (support::parseUint64(Text, Out))
    return true;
  logMessage(LogLevel::Error,
             "orp-trace %s: %s expects an unsigned integer, got '%s'", Cmd,
             Flag, Text);
  return false;
}

bool numericFlag(const char *Cmd, const char *Flag, const char *Text,
                 unsigned &Out) {
  if (support::parseUnsigned(Text, Out))
    return true;
  logMessage(LogLevel::Error,
             "orp-trace %s: %s expects an unsigned integer, got '%s'", Cmd,
             Flag, Text);
  return false;
}

bool parseAllocPolicy(const char *Name, memsim::AllocPolicy &Policy) {
  if (!std::strcmp(Name, "first-fit"))
    Policy = memsim::AllocPolicy::FirstFit;
  else if (!std::strcmp(Name, "best-fit"))
    Policy = memsim::AllocPolicy::BestFit;
  else if (!std::strcmp(Name, "next-fit"))
    Policy = memsim::AllocPolicy::NextFit;
  else if (!std::strcmp(Name, "segregated"))
    Policy = memsim::AllocPolicy::Segregated;
  else
    return false;
  return true;
}

/// Shared --metrics* option state of the replay-driving verbs.
struct MetricsOptions {
  std::string Path;      ///< Output target; empty = no final snapshot.
  uint64_t Interval = 0; ///< Events between periodic snapshots; 0 = off.
  telemetry::SnapshotFormat Format = telemetry::SnapshotFormat::Json;
  bool FormatSet = false;

  /// Handles one command-line argument; returns true when consumed,
  /// false with \p Failed set when it was a malformed metrics flag.
  bool consume(const char *Cmd, const std::string &Arg, bool &Failed) {
    Failed = false;
    if (const char *V = flagValue(Arg, "--metrics=")) {
      Path = V;
      return true;
    }
    if (const char *V = flagValue(Arg, "--metrics-interval=")) {
      if (!numericFlag(Cmd, "--metrics-interval", V, Interval))
        Failed = true;
      return true;
    }
    if (const char *V = flagValue(Arg, "--metrics-format=")) {
      FormatSet = true;
      if (!std::strcmp(V, "json"))
        Format = telemetry::SnapshotFormat::Json;
      else if (!std::strcmp(V, "json-lines"))
        Format = telemetry::SnapshotFormat::JsonCompact;
      else if (!std::strcmp(V, "prometheus"))
        Format = telemetry::SnapshotFormat::Prometheus;
      else {
        logMessage(LogLevel::Error,
                   "orp-trace %s: --metrics-format expects "
                   "json|json-lines|prometheus, got '%s'",
                   Cmd, V);
        Failed = true;
      }
      return true;
    }
    return false;
  }

  /// Periodic snapshots force the one-object-per-line form so the
  /// output file is a valid JSONL stream.
  telemetry::SnapshotFormat periodicFormat() const {
    return Format == telemetry::SnapshotFormat::Prometheus
               ? telemetry::SnapshotFormat::Prometheus
               : telemetry::SnapshotFormat::JsonCompact;
  }
};

/// Builds the MetricsTicker for \p Opts (nullptr when no periodic
/// emission was requested) and truncates the target file so the
/// periodic appends start clean.
std::unique_ptr<trace::MetricsTicker>
makeTicker(const MetricsOptions &Opts, bool &TickerOk) {
  TickerOk = true;
  if (!Opts.Interval || Opts.Path.empty())
    return nullptr;
  if (Opts.Path != "-") {
    std::FILE *Out = std::fopen(Opts.Path.c_str(), "wb");
    if (!Out) {
      logMessage(LogLevel::Error, "orp-trace: cannot open '%s' for writing",
                 Opts.Path.c_str());
      TickerOk = false;
      return nullptr;
    }
    std::fclose(Out);
  }
  return std::make_unique<trace::MetricsTicker>(
      Opts.Interval, [&Opts](const telemetry::MetricsSnapshot &S) {
        std::string Err;
        if (!telemetry::writeSnapshot(S, Opts.Path, Opts.periodicFormat(),
                                      /*Append=*/true, Err))
          logMessage(LogLevel::Warn, "orp-trace: %s", Err.c_str());
      });
}

/// Writes the final snapshot per \p Opts; returns false on I/O failure.
bool emitFinalSnapshot(const MetricsOptions &Opts) {
  if (Opts.Path.empty())
    return true;
  telemetry::MetricsSnapshot S = telemetry::Registry::global().snapshot();
  telemetry::SnapshotFormat F =
      Opts.Interval ? Opts.periodicFormat() : Opts.Format;
  std::string Err;
  if (!telemetry::writeSnapshot(S, Opts.Path, F, /*Append=*/Opts.Interval != 0,
                                Err)) {
    logMessage(LogLevel::Error, "orp-trace: %s", Err.c_str());
    return false;
  }
  return true;
}

int cmdRecord(int Argc, char **Argv) {
  std::string WorkloadName, OutPath;
  memsim::AllocPolicy Policy = memsim::AllocPolicy::FirstFit;
  uint64_t Seed = 42, EnvSeed = 0, Scale = 1;
  uint64_t BlockBytes = traceio::TraceWriter::kDefaultBlockBytes;
  for (int I = 0; I != Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "-o" && I + 1 != Argc) {
      OutPath = Argv[++I];
    } else if (const char *V = flagValue(Arg, "--out=")) {
      OutPath = V;
    } else if (const char *V = flagValue(Arg, "--alloc=")) {
      if (!parseAllocPolicy(V, Policy)) {
        logMessage(LogLevel::Error, "orp-trace: unknown alloc policy '%s'",
                   V);
        return 1;
      }
    } else if (const char *V = flagValue(Arg, "--seed=")) {
      if (!numericFlag("record", "--seed", V, Seed))
        return 1;
    } else if (const char *V = flagValue(Arg, "--env=")) {
      if (!numericFlag("record", "--env", V, EnvSeed))
        return 1;
    } else if (const char *V = flagValue(Arg, "--scale=")) {
      if (!numericFlag("record", "--scale", V, Scale))
        return 1;
    } else if (const char *V = flagValue(Arg, "--block-bytes=")) {
      if (!numericFlag("record", "--block-bytes", V, BlockBytes))
        return 1;
      if (BlockBytes == 0) {
        logMessage(LogLevel::Error,
                   "orp-trace record: --block-bytes must be at least 1");
        return 1;
      }
    } else if (Arg[0] != '-' && WorkloadName.empty()) {
      WorkloadName = Arg;
    } else {
      logMessage(LogLevel::Error, "orp-trace record: bad argument '%s'",
                 Arg.c_str());
      return 1;
    }
  }
  if (WorkloadName.empty()) {
    logMessage(LogLevel::Error, "orp-trace record: missing workload name");
    return 1;
  }
  auto Workload = workloads::createWorkloadByName(WorkloadName);
  if (!Workload) {
    logMessage(LogLevel::Error,
               "orp-trace: unknown workload '%s'; available: 164.gzip-a "
               "175.vpr-a 181.mcf-a 186.crafty-a 197.parser-a "
               "256.bzip2-a 300.twolf-a list-traversal",
               WorkloadName.c_str());
    return 1;
  }
  if (OutPath.empty())
    OutPath = WorkloadName + ".orpt";

  core::ProfilingSession Session(Policy, EnvSeed);
  traceio::TraceWriter Writer(OutPath, Session.registry(), Policy, EnvSeed,
                              static_cast<size_t>(BlockBytes));
  if (!Writer.ok()) {
    logMessage(LogLevel::Error, "orp-trace: %s", Writer.error().c_str());
    return 1;
  }
  Session.addRawSink(&Writer);

  workloads::WorkloadConfig Config;
  Config.Seed = Seed;
  Config.Scale = Scale;
  uint64_t Checksum =
      Workload->run(Session.memory(), Session.registry(), Config);
  Session.finish();
  if (!Writer.close()) {
    logMessage(LogLevel::Error, "orp-trace: %s", Writer.error().c_str());
    return 1;
  }
  std::printf("%s: recorded %llu events to %s (format v%u, %llu bytes, "
              "%.2f bytes/event), checksum %llu\n",
              Workload->name(),
              static_cast<unsigned long long>(Writer.eventsWritten()),
              OutPath.c_str(),
              static_cast<unsigned>(traceio::kFormatVersionV2),
              static_cast<unsigned long long>(Writer.bytesWritten()),
              Writer.eventsWritten()
                  ? static_cast<double>(Writer.bytesWritten()) /
                        static_cast<double>(Writer.eventsWritten())
                  : 0.0,
              static_cast<unsigned long long>(Checksum));
  return 0;
}

int cmdReplay(int Argc, char **Argv) {
  std::string Path, Profiler = "whomp", DumpOmsg, DumpLeap;
  std::string ResumeFrom, CheckpointOut;
  uint64_t EndBlock = ~static_cast<uint64_t>(0), CheckpointEvery = 0;
  unsigned MaxLmads = 30, Threads = 1;
  MetricsOptions Metrics;
  for (int I = 0; I != Argc; ++I) {
    std::string Arg = Argv[I];
    bool MetricsFailed = false;
    if (const char *V = flagValue(Arg, "--profiler=")) {
      Profiler = V;
    } else if (const char *V = flagValue(Arg, "--lmads=")) {
      if (!numericFlag("replay", "--lmads", V, MaxLmads))
        return 1;
    } else if (const char *V = flagValue(Arg, "--threads=")) {
      if (!numericFlag("replay", "--threads", V, Threads))
        return 1;
      if (Threads == 0) {
        logMessage(LogLevel::Error,
                   "orp-trace replay: --threads must be at least 1");
        return 1;
      }
    } else if (const char *V = flagValue(Arg, "--dump-omsg=")) {
      DumpOmsg = V;
    } else if (const char *V = flagValue(Arg, "--dump-leap=")) {
      DumpLeap = V;
    } else if (const char *V = flagValue(Arg, "--end-block=")) {
      if (!numericFlag("replay", "--end-block", V, EndBlock))
        return 1;
    } else if (const char *V = flagValue(Arg, "--resume-from=")) {
      ResumeFrom = V;
    } else if (const char *V = flagValue(Arg, "--checkpoint-every=")) {
      if (!numericFlag("replay", "--checkpoint-every", V, CheckpointEvery))
        return 1;
      if (CheckpointEvery == 0) {
        logMessage(LogLevel::Error,
                   "orp-trace replay: --checkpoint-every must be at least 1");
        return 1;
      }
    } else if (const char *V = flagValue(Arg, "--checkpoint-out=")) {
      CheckpointOut = V;
    } else if (Metrics.consume("replay", Arg, MetricsFailed)) {
      if (MetricsFailed)
        return 1;
    } else if (Arg[0] != '-' && Path.empty()) {
      Path = Arg;
    } else {
      logMessage(LogLevel::Error, "orp-trace replay: bad argument '%s'",
                 Arg.c_str());
      return 1;
    }
  }
  if (Path.empty() ||
      (Profiler != "whomp" && Profiler != "leap" && Profiler != "rasg")) {
    logMessage(LogLevel::Error, "orp-trace replay: need <file> and "
                                "--profiler=whomp|leap|rasg");
    return 1;
  }
  if (CheckpointEvery && CheckpointOut.empty()) {
    logMessage(LogLevel::Error, "orp-trace replay: --checkpoint-every "
                                "needs --checkpoint-out=PATH");
    return 1;
  }

  traceio::TraceReader Reader;
  if (!Reader.open(Path)) {
    logMessage(LogLevel::Error, "orp-trace: %s", Reader.error().c_str());
    return 1;
  }

  // The extra sinks are declared before the session that calls their
  // onFinish() when it is destroyed, so every early return below frees
  // them after it.
  baseline::RasgProfiler Rasg;
  bool TickerOk = true;
  std::unique_ptr<trace::MetricsTicker> Ticker =
      makeTicker(Metrics, TickerOk);
  if (!TickerOk)
    return 1;

  // One ProfileSession — the same engine an orp-traced session runs, so
  // this path and the daemon path produce byte-identical artifacts.
  session::SessionConfig Config = session::recordedConfig(Reader);
  Config.EnableWhomp = Profiler == "whomp";
  Config.EnableLeap = Profiler == "leap";
  Config.MaxLmads = MaxLmads;
  Config.ProfilerThreads = Threads;
  session::ProfileSession Session(Path, Config);
  if (Profiler == "rasg")
    Session.core().addRawSink(&Rasg);
  if (Ticker)
    Session.core().addRawSink(Ticker.get());

  uint64_t FirstBlock = 0;
  if (!ResumeFrom.empty()) {
    std::vector<uint8_t> CkBytes;
    std::string Err;
    if (!readArtifactFile(ResumeFrom, CkBytes))
      return 1;
    if (!Session.restoreCheckpoint(CkBytes, Reader, FirstBlock, Err)) {
      logMessage(LogLevel::Error, "orp-trace replay: %s: %s",
                 ResumeFrom.c_str(), Err.c_str());
      return 1;
    }
    std::printf("resumed from %s at block %llu (%llu events already "
                "translated)\n",
                ResumeFrom.c_str(),
                static_cast<unsigned long long>(FirstBlock),
                static_cast<unsigned long long>(Session.eventsInjected()));
  }

  // Periodic checkpoints are written from the replayer's block callback,
  // which runs on this thread at every block boundary.
  bool CheckpointFailed = false;
  std::function<void(uint64_t)> BlockDone;
  if (CheckpointEvery)
    BlockDone = [&](uint64_t Next) {
      if ((Next - FirstBlock) % CheckpointEvery != 0)
        return;
      std::string CkPath =
          CheckpointOut + "." + std::to_string(Next) + ".orck";
      if (!writeArtifactFile(CkPath, Session.checkpoint(Reader, Next)))
        CheckpointFailed = true;
    };

  if (!Session.replayFrom(Reader, Threads, FirstBlock, EndBlock,
                          BlockDone)) {
    logMessage(LogLevel::Error, "orp-trace: %s", Session.error().c_str());
    return 1;
  }
  if (CheckpointFailed)
    return 1;
  if (!CheckpointEvery && !CheckpointOut.empty()) {
    // One checkpoint at the end of the replayed range: the resume point
    // for a follow-up segment replay.
    uint64_t Next = std::min<uint64_t>(EndBlock, Reader.numEventBlocks());
    if (!writeArtifactFile(CheckpointOut, Session.checkpoint(Reader, Next)))
      return 1;
    std::printf("wrote checkpoint: %s (next block %llu)\n",
                CheckpointOut.c_str(),
                static_cast<unsigned long long>(Next));
  }
  session::SessionArtifacts Artifacts = Session.finalize();
  std::printf("%s: replayed %llu events (%llu instr sites, %llu alloc "
              "sites, alloc policy %s, env seed %llu)\n",
              Path.c_str(),
              static_cast<unsigned long long>(Session.eventsInjected()),
              static_cast<unsigned long long>(Reader.info().NumInstructions),
              static_cast<unsigned long long>(Reader.info().NumAllocSites),
              memsim::allocPolicyName(static_cast<memsim::AllocPolicy>(
                  Reader.info().AllocPolicy)),
              static_cast<unsigned long long>(Reader.info().Seed));

  if (Profiler == "whomp") {
    whomp::WhompProfiler &Whomp = *Session.whomp();
    whomp::OmsgSizes S = Whomp.sizes();
    std::printf("WHOMP OMSG: %zu tuples, %zu bytes (instr %zu, group %zu, "
                "object %zu, offset %zu)\n",
                static_cast<size_t>(Whomp.tuplesSeen()), S.total(), S.Instr,
                S.Group, S.Object, S.Offset);
    if (!DumpOmsg.empty()) {
      if (!writeArtifactFile(DumpOmsg, Artifacts.Omsg))
        return 1;
      std::printf("wrote OMSG archive: %s (%zu bytes)\n", DumpOmsg.c_str(),
                  Artifacts.Omsg.size());
    }
  } else if (Profiler == "leap") {
    leap::LeapProfiler &Leap = *Session.leap();
    auto Data = leap::LeapProfileData::fromProfiler(Leap);
    std::printf("LEAP: %zu substreams, %zu profile bytes, %.1f%% accesses "
                "/ %.1f%% instructions captured\n",
                Data.substreams().size(), Artifacts.Leap.size(),
                Leap.accessesCapturedPercent(),
                Leap.instructionsCapturedPercent());
    if (!DumpLeap.empty()) {
      if (!writeArtifactFile(DumpLeap, Artifacts.Leap))
        return 1;
      std::printf("wrote LEAP profile: %s (%zu bytes)\n", DumpLeap.c_str(),
                  Artifacts.Leap.size());
    }
  } else {
    std::printf("RASG: %llu accesses, %zu bytes\n",
                static_cast<unsigned long long>(Rasg.accessesSeen()),
                Rasg.serializedSizeBytes());
  }
  return emitFinalSnapshot(Metrics) ? 0 : 1;
}

/// Renders \p S as aligned tables on stdout (the `stats` verb).
void printSnapshotTables(const telemetry::MetricsSnapshot &S) {
  if (!S.Counters.empty()) {
    TablePrinter T({"counter", "value"});
    for (const auto &C : S.Counters)
      T.addRow({C.Name, TablePrinter::fmt(C.Value)});
    std::printf("\n");
    T.print();
  }
  if (!S.Gauges.empty()) {
    TablePrinter T({"gauge", "value"});
    for (const auto &G : S.Gauges) {
      char Buf[24];
      std::snprintf(Buf, sizeof(Buf), "%lld",
                    static_cast<long long>(G.Value));
      T.addRow({G.Name, Buf});
    }
    std::printf("\n");
    T.print();
  }
  if (!S.Timers.empty()) {
    TablePrinter T({"timer", "count", "total ms"});
    for (const auto &Tm : S.Timers)
      T.addRow({Tm.Name, TablePrinter::fmt(Tm.Count),
                TablePrinter::fmt(
                    static_cast<double>(Tm.TotalNanos) / 1e6, 2)});
    std::printf("\n");
    T.print();
  }
  if (!S.Histograms.empty()) {
    TablePrinter T({"histogram", "count", "sum", "mean"});
    for (const auto &H : S.Histograms)
      T.addRow({H.Name, TablePrinter::fmt(H.Count), TablePrinter::fmt(H.Sum),
                TablePrinter::fmt(H.Count ? static_cast<double>(H.Sum) /
                                                static_cast<double>(H.Count)
                                          : 0.0,
                                  1)});
    std::printf("\n");
    T.print();
  }
}

int cmdStats(int Argc, char **Argv) {
  std::string Path;
  unsigned MaxLmads = 30, Threads = 1;
  MetricsOptions Metrics;
  for (int I = 0; I != Argc; ++I) {
    std::string Arg = Argv[I];
    bool MetricsFailed = false;
    if (const char *V = flagValue(Arg, "--lmads=")) {
      if (!numericFlag("stats", "--lmads", V, MaxLmads))
        return 1;
    } else if (const char *V = flagValue(Arg, "--threads=")) {
      if (!numericFlag("stats", "--threads", V, Threads))
        return 1;
      if (Threads == 0) {
        logMessage(LogLevel::Error,
                   "orp-trace stats: --threads must be at least 1");
        return 1;
      }
    } else if (Metrics.consume("stats", Arg, MetricsFailed)) {
      if (MetricsFailed)
        return 1;
    } else if (Arg[0] != '-' && Path.empty()) {
      Path = Arg;
    } else {
      logMessage(LogLevel::Error, "orp-trace stats: bad argument '%s'",
                 Arg.c_str());
      return 1;
    }
  }
  if (Path.empty()) {
    logMessage(LogLevel::Error, "orp-trace stats: missing trace file");
    return 1;
  }

  traceio::TraceReader Reader;
  if (!Reader.open(Path)) {
    logMessage(LogLevel::Error, "orp-trace: %s", Reader.error().c_str());
    return 1;
  }

  // Both profilers at once: the snapshot then covers the whole pipeline
  // — OMC, CDC, WHOMP grammars and LEAP substreams in one table.
  session::SessionConfig Config = session::recordedConfig(Reader);
  Config.MaxLmads = MaxLmads;
  Config.ProfilerThreads = Threads;
  session::ProfileSession Session(Path, Config);

  if (!Session.replayFrom(Reader, Threads)) {
    logMessage(LogLevel::Error, "orp-trace: %s", Session.error().c_str());
    return 1;
  }
  session::SessionArtifacts Artifacts = Session.finalize();

  // Run the hot/cold classifier over the finished artifacts and publish
  // the advisor.* gauges so the snapshot shows advice counts alongside
  // the profiler metrics.
  advisor::AdvisorReport AdviceReport;
  advisor::AdvisorTelemetry AdviceBridge;
  if (!Artifacts.Leap.empty() && !Artifacts.Omsg.empty()) {
    leap::LeapProfileData Leap;
    whomp::OmsgArchive Omsg;
    std::string Err;
    if (!leap::LeapProfileData::deserialize(Artifacts.Leap, Leap, Err) ||
        !whomp::OmsgArchive::deserialize(Artifacts.Omsg, Omsg, Err)) {
      logMessage(LogLevel::Error, "orp-trace: %s", Err.c_str());
      return 1;
    }
    AdviceReport = advisor::HotColdClassifier().classify(Leap, Omsg);
    AdviceBridge.attachReport(&AdviceReport);
  }

  std::printf("%s: %llu events, %u thread(s)\n", Path.c_str(),
              static_cast<unsigned long long>(Session.eventsInjected()),
              Threads);
  telemetry::MetricsSnapshot S = telemetry::Registry::global().snapshot();
  printSnapshotTables(S);
  if (!Metrics.Path.empty()) {
    std::string Err;
    if (!telemetry::writeSnapshot(S, Metrics.Path, Metrics.Format,
                                  /*Append=*/false, Err)) {
      logMessage(LogLevel::Error, "orp-trace: %s", Err.c_str());
      return 1;
    }
  }
  return 0;
}

int cmdInfo(int Argc, char **Argv) {
  std::string Path;
  bool PerBlock = false;
  for (int I = 0; I != Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--blocks") {
      PerBlock = true;
    } else if (Arg[0] != '-' && Path.empty()) {
      Path = Arg;
    } else {
      logMessage(LogLevel::Error, "orp-trace info: bad argument '%s'",
                 Arg.c_str());
      return 1;
    }
  }
  if (Path.empty()) {
    logMessage(LogLevel::Error, "orp-trace info: missing trace file");
    return 1;
  }

  traceio::TraceReader Reader;
  if (!Reader.open(Path)) {
    logMessage(LogLevel::Error, "orp-trace: %s", Reader.error().c_str());
    return 1;
  }
  const traceio::TraceInfo &I = Reader.info();

  // Per-block kind counts, gathered block by block so the table and the
  // stream totals come from one decode pass.
  struct BlockKinds {
    uint64_t Accesses = 0, Allocs = 0, Frees = 0;
  };
  std::vector<traceio::TraceReader::BlockStats> Blocks = Reader.blockStats();
  std::vector<BlockKinds> Kinds(Blocks.size());
  uint64_t Accesses = 0, Allocs = 0, Frees = 0;
  traceio::DecodedBlock Block;
  for (size_t B = 0; B != Blocks.size(); ++B) {
    if (!Reader.decodeBlockColumns(B, Block)) {
      logMessage(LogLevel::Error, "orp-trace: %s", Reader.error().c_str());
      return 1;
    }
    Kinds[B].Accesses = Block.Accesses.size();
    for (const traceio::DecodedBlock::Boundary &Bd : Block.Boundaries)
      if (Bd.E.K == traceio::TraceEvent::Kind::Alloc)
        ++Kinds[B].Allocs;
      else
        ++Kinds[B].Frees;
    Accesses += Kinds[B].Accesses;
    Allocs += Kinds[B].Allocs;
    Frees += Kinds[B].Frees;
  }

  std::printf("%s:\n", Path.c_str());
  std::printf("  format version  %u\n", I.Version);
  std::printf("  alloc policy    %s\n",
              memsim::allocPolicyName(
                  static_cast<memsim::AllocPolicy>(I.AllocPolicy)));
  std::printf("  env seed        %llu\n",
              static_cast<unsigned long long>(I.Seed));
  std::printf("  file size       %llu bytes (%llu blocks, %.2f "
              "bytes/event)\n",
              static_cast<unsigned long long>(I.FileBytes),
              static_cast<unsigned long long>(I.NumBlocks),
              I.TotalEvents ? static_cast<double>(I.FileBytes) /
                                  static_cast<double>(I.TotalEvents)
                            : 0.0);
  std::printf("  events          %llu (%llu accesses, %llu allocs, %llu "
              "frees)\n",
              static_cast<unsigned long long>(I.TotalEvents),
              static_cast<unsigned long long>(Accesses),
              static_cast<unsigned long long>(Allocs),
              static_cast<unsigned long long>(Frees));
  std::printf("  probe sites     %llu instructions, %llu alloc sites\n",
              static_cast<unsigned long long>(I.NumInstructions),
              static_cast<unsigned long long>(I.NumAllocSites));

  if (PerBlock && !Blocks.size())
    std::printf("  (no event blocks)\n");
  if (PerBlock && Blocks.size()) {
    TablePrinter T({"block", "events", "accesses", "allocs", "frees",
                    "payload B", "B/event"});
    for (size_t B = 0; B != Blocks.size(); ++B)
      T.addRow({TablePrinter::fmt(static_cast<uint64_t>(B)),
                TablePrinter::fmt(Blocks[B].EventCount),
                TablePrinter::fmt(Kinds[B].Accesses),
                TablePrinter::fmt(Kinds[B].Allocs),
                TablePrinter::fmt(Kinds[B].Frees),
                TablePrinter::fmt(
                    static_cast<uint64_t>(Blocks[B].PayloadBytes)),
                TablePrinter::fmt(
                    Blocks[B].EventCount
                        ? static_cast<double>(Blocks[B].PayloadBytes) /
                              static_cast<double>(Blocks[B].EventCount)
                        : 0.0,
                    2)});
    std::printf("\n");
    T.print();
  }
  return 0;
}

/// Default session name for a submitted trace: the file's base name
/// without its .orpt suffix.
std::string defaultSessionName(const std::string &Path) {
  size_t Slash = Path.find_last_of('/');
  std::string Base =
      Slash == std::string::npos ? Path : Path.substr(Slash + 1);
  if (Base.size() > 5 && Base.compare(Base.size() - 5, 5, ".orpt") == 0)
    Base.resize(Base.size() - 5);
  return Base.empty() ? "trace" : Base;
}

int cmdSubmit(int Argc, char **Argv) {
  std::string Path, Socket, Name, DumpOmsg, DumpLeap, SnapshotFmt;
  unsigned MaxLmads = 30;
  for (int I = 0; I != Argc; ++I) {
    std::string Arg = Argv[I];
    if (const char *V = flagValue(Arg, "--socket=")) {
      Socket = V;
    } else if (const char *V = flagValue(Arg, "--name=")) {
      Name = V;
    } else if (const char *V = flagValue(Arg, "--lmads=")) {
      if (!numericFlag("submit", "--lmads", V, MaxLmads))
        return 1;
    } else if (const char *V = flagValue(Arg, "--dump-omsg=")) {
      DumpOmsg = V;
    } else if (const char *V = flagValue(Arg, "--dump-leap=")) {
      DumpLeap = V;
    } else if (const char *V = flagValue(Arg, "--print-snapshot=")) {
      SnapshotFmt = V;
      if (SnapshotFmt != "json" && SnapshotFmt != "json-lines" &&
          SnapshotFmt != "prometheus") {
        logMessage(LogLevel::Error,
                   "orp-trace submit: --print-snapshot expects "
                   "json|json-lines|prometheus, got '%s'",
                   V);
        return 1;
      }
    } else if (Arg[0] != '-' && Path.empty()) {
      Path = Arg;
    } else {
      logMessage(LogLevel::Error, "orp-trace submit: bad argument '%s'",
                 Arg.c_str());
      return 1;
    }
  }
  if (Path.empty() || Socket.empty()) {
    logMessage(LogLevel::Error,
               "orp-trace submit: need <file> and --socket=PATH");
    return 1;
  }

  traceio::TraceReader Reader;
  if (!Reader.open(Path)) {
    logMessage(LogLevel::Error, "orp-trace: %s", Reader.error().c_str());
    return 1;
  }

  session::Client Client;
  std::string Err;
  if (!Client.connect(Socket, Err)) {
    logMessage(LogLevel::Error, "orp-trace: %s", Err.c_str());
    return 1;
  }

  session::OpenRequest Req;
  Req.Name = Name.empty() ? defaultSessionName(Path) : Name;
  Req.Config = session::recordedConfig(Reader);
  Req.Config.MaxLmads = MaxLmads;
  Req.Instrs = Reader.instructions();
  Req.Sites = Reader.allocSites();

  uint64_t Id = 0;
  if (!Client.openSession(Req, Id, Err) ||
      !Client.submitTrace(Id, Reader, Err)) {
    logMessage(LogLevel::Error, "orp-trace submit: %s", Err.c_str());
    return 1;
  }

  if (!SnapshotFmt.empty()) {
    uint8_t Format = SnapshotFmt == "json" ? 0
                     : SnapshotFmt == "json-lines" ? 1
                                                   : 2;
    std::string Text;
    if (!Client.snapshot(Format, Req.Name, Text, Err)) {
      logMessage(LogLevel::Error, "orp-trace submit: %s", Err.c_str());
      return 1;
    }
    std::fwrite(Text.data(), 1, Text.size(), stdout);
  }

  session::CloseSummary Summary;
  if (!Client.closeSession(Id, Summary, Err)) {
    logMessage(LogLevel::Error, "orp-trace submit: %s", Err.c_str());
    return 1;
  }
  if (Summary.Failed) {
    logMessage(LogLevel::Error, "orp-trace submit: daemon: %s",
               Summary.Error.c_str());
    return 1;
  }
  std::printf("%s: submitted %llu events as '%s' (omsg %zu bytes, leap "
              "%zu bytes)\n",
              Path.c_str(),
              static_cast<unsigned long long>(Summary.Events),
              Req.Name.c_str(), Summary.Omsg.size(), Summary.Leap.size());
  if (!DumpOmsg.empty() && !writeArtifactFile(DumpOmsg, Summary.Omsg))
    return 1;
  if (!DumpLeap.empty() && !writeArtifactFile(DumpLeap, Summary.Leap))
    return 1;
  return 0;
}

int cmdMerge(int Argc, char **Argv) {
  std::vector<std::string> Inputs;
  std::string OutPath;
  bool Sequential = false;
  for (int I = 0; I != Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "-o" && I + 1 != Argc) {
      OutPath = Argv[++I];
    } else if (const char *V = flagValue(Arg, "--out=")) {
      OutPath = V;
    } else if (Arg == "--sequential") {
      Sequential = true;
    } else if (Arg[0] != '-') {
      Inputs.push_back(Arg);
    } else {
      logMessage(LogLevel::Error, "orp-trace merge: bad argument '%s'",
                 Arg.c_str());
      return 1;
    }
  }
  if (Inputs.size() < 2 || OutPath.empty()) {
    logMessage(LogLevel::Error,
               "orp-trace merge: need at least two inputs and -o OUT");
    return 1;
  }

  std::vector<std::vector<uint8_t>> Images(Inputs.size());
  ArtifactKind Kind = ArtifactKind::Unknown;
  for (size_t I = 0; I != Inputs.size(); ++I) {
    if (!readArtifactFile(Inputs[I], Images[I]))
      return 1;
    ArtifactKind K = sniffArtifact(Images[I]);
    if (K == ArtifactKind::Unknown) {
      logMessage(LogLevel::Error,
                 "orp-trace merge: '%s' is not a known artifact",
                 Inputs[I].c_str());
      return 1;
    }
    if (I == 0)
      Kind = K;
    else if (K != Kind) {
      logMessage(LogLevel::Error,
                 "orp-trace merge: '%s' is a %s but '%s' is a %s",
                 Inputs[I].c_str(), artifactKindName(K), Inputs[0].c_str(),
                 artifactKindName(Kind));
      return 1;
    }
  }

  std::string Err;
  std::vector<uint8_t> Out;
  const char *OutKind = artifactKindName(Kind);
  if (Kind == ArtifactKind::Leap) {
    leap::LeapProfileData Merged;
    if (!leap::LeapProfileData::deserialize(Images[0], Merged, Err)) {
      logMessage(LogLevel::Error, "orp-trace merge: %s: %s",
                 Inputs[0].c_str(), Err.c_str());
      return 1;
    }
    for (size_t I = 1; I != Inputs.size(); ++I) {
      leap::LeapProfileData Next;
      if (!leap::LeapProfileData::deserialize(Images[I], Next, Err) ||
          !(Sequential ? Merged.mergeSequential(Next, Err)
                       : Merged.mergeUnion(Next, Err))) {
        logMessage(LogLevel::Error, "orp-trace merge: %s: %s",
                   Inputs[I].c_str(), Err.c_str());
        return 1;
      }
    }
    Out = Merged.serialize();
  } else if (Kind == ArtifactKind::Omsa && Sequential) {
    std::vector<whomp::OmsgArchive> Archives(Inputs.size());
    std::vector<const whomp::OmsgArchive *> Segments;
    for (size_t I = 0; I != Inputs.size(); ++I) {
      if (!whomp::OmsgArchive::deserialize(Images[I], Archives[I], Err)) {
        logMessage(LogLevel::Error, "orp-trace merge: %s: %s",
                   Inputs[I].c_str(), Err.c_str());
        return 1;
      }
      Segments.push_back(&Archives[I]);
    }
    whomp::OmsgArchive Merged;
    if (!whomp::OmsgArchive::mergeSequential(Segments, Merged, Err)) {
      logMessage(LogLevel::Error, "orp-trace merge: %s", Err.c_str());
      return 1;
    }
    Out = Merged.serialize();
  } else {
    // Independent-run OMSG fold: full archives have no common tuple
    // order, so the mergeable form is the statistics digest. OMST
    // inputs fold directly; OMSA inputs are digested first.
    whomp::OmsgStats Merged;
    for (size_t I = 0; I != Inputs.size(); ++I) {
      whomp::OmsgStats Stats;
      if (Kind == ArtifactKind::Omsa) {
        whomp::OmsgArchive Archive;
        if (!whomp::OmsgArchive::deserialize(Images[I], Archive, Err)) {
          logMessage(LogLevel::Error, "orp-trace merge: %s: %s",
                     Inputs[I].c_str(), Err.c_str());
          return 1;
        }
        Stats = whomp::OmsgStats::fromArchive(Archive);
      } else if (!whomp::OmsgStats::deserialize(Images[I], Stats, Err)) {
        logMessage(LogLevel::Error, "orp-trace merge: %s: %s",
                   Inputs[I].c_str(), Err.c_str());
        return 1;
      }
      if (!Merged.merge(Stats, Err)) {
        logMessage(LogLevel::Error, "orp-trace merge: %s: %s",
                   Inputs[I].c_str(), Err.c_str());
        return 1;
      }
    }
    Out = Merged.serialize();
    OutKind = artifactKindName(ArtifactKind::Omst);
  }

  if (!writeArtifactFile(OutPath, Out))
    return 1;
  std::printf("merged %zu %s inputs (%s) into %s (%s, %zu bytes)\n",
              Inputs.size(), artifactKindName(Kind),
              Sequential ? "sequential" : "union", OutPath.c_str(), OutKind,
              Out.size());
  return 0;
}

/// Prints one named counter difference and counts it.
void diffCounter(const char *What, uint64_t A, uint64_t B, int &Diffs) {
  if (A == B)
    return;
  ++Diffs;
  std::printf("  %s: %llu vs %llu\n", What,
              static_cast<unsigned long long>(A),
              static_cast<unsigned long long>(B));
}

int cmdDiff(const char *PathA, const char *PathB) {
  std::vector<uint8_t> BytesA, BytesB;
  if (!readArtifactFile(PathA, BytesA) || !readArtifactFile(PathB, BytesB))
    return 2;
  if (BytesA == BytesB) {
    std::printf("%s and %s are identical (%zu bytes)\n", PathA, PathB,
                BytesA.size());
    return 0;
  }
  ArtifactKind KindA = sniffArtifact(BytesA), KindB = sniffArtifact(BytesB);
  if (KindA != KindB || KindA == ArtifactKind::Unknown) {
    std::printf("%s is a %s, %s is a %s\n", PathA, artifactKindName(KindA),
                PathB, artifactKindName(KindB));
    return KindA == ArtifactKind::Unknown || KindB == ArtifactKind::Unknown
               ? 2
               : 1;
  }

  std::string Err;
  int Diffs = 0;
  if (KindA == ArtifactKind::Leap) {
    leap::LeapProfileData A, B;
    if (!leap::LeapProfileData::deserialize(BytesA, A, Err)) {
      logMessage(LogLevel::Error, "orp-trace diff: %s: %s", PathA,
                 Err.c_str());
      return 2;
    }
    if (!leap::LeapProfileData::deserialize(BytesB, B, Err)) {
      logMessage(LogLevel::Error, "orp-trace diff: %s: %s", PathB,
                 Err.c_str());
      return 2;
    }
    diffCounter("descriptor cap", A.maxLmads(), B.maxLmads(), Diffs);
    diffCounter("substreams", A.substreams().size(), B.substreams().size(),
                Diffs);
    diffCounter("instructions", A.instructions().size(),
                B.instructions().size(), Diffs);
    uint64_t PointsA = 0, PointsB = 0;
    // Diagnostic counting only; the counts are order-independent.
    for (const auto &[Key, Sub] : A.substreams()) {
      PointsA += Sub.TotalPoints;
      auto It = B.substreams().find(Key);
      if (It == B.substreams().end() || !(It->second == Sub))
        ++Diffs;
    }
    for (const auto &[Key, Sub] : B.substreams()) {
      PointsB += Sub.TotalPoints;
      if (A.substreams().find(Key) == A.substreams().end())
        ++Diffs;
    }
    for (const auto &[Instr, Summary] : A.instructions()) {
      auto It = B.instructions().find(Instr);
      if (It == B.instructions().end() ||
          It->second.ExecCount != Summary.ExecCount ||
          It->second.StoreCount != Summary.StoreCount)
        ++Diffs;
    }
    std::printf("LEAP profiles differ in %d place(s) (%llu vs %llu total "
                "points)\n",
                Diffs, static_cast<unsigned long long>(PointsA),
                static_cast<unsigned long long>(PointsB));
  } else if (KindA == ArtifactKind::Omsa) {
    whomp::OmsgArchive A, B;
    if (!whomp::OmsgArchive::deserialize(BytesA, A, Err)) {
      logMessage(LogLevel::Error, "orp-trace diff: %s: %s", PathA,
                 Err.c_str());
      return 2;
    }
    if (!whomp::OmsgArchive::deserialize(BytesB, B, Err)) {
      logMessage(LogLevel::Error, "orp-trace diff: %s: %s", PathB,
                 Err.c_str());
      return 2;
    }
    diffCounter("dimension streams", A.numDimensions(), B.numDimensions(),
                Diffs);
    diffCounter("accesses", A.accessCount(), B.accessCount(), Diffs);
    diffCounter("aux objects", A.objects().size(), B.objects().size(),
                Diffs);
    size_t Dims = std::min(A.numDimensions(), B.numDimensions());
    for (size_t D = 0; D != Dims; ++D)
      if (!sequitur::sameExpansion(A.grammarImages()[D],
                                   B.grammarImages()[D])) {
        ++Diffs;
        std::printf("  dimension %zu streams differ\n", D);
      }
    if (A.objects().size() == B.objects().size() &&
        !(A.objects() == B.objects())) {
      ++Diffs;
      std::printf("  aux object tables differ\n");
    }
    std::printf("OMSG archives differ in %d place(s)\n", Diffs);
  } else {
    whomp::OmsgStats A, B;
    if (!whomp::OmsgStats::deserialize(BytesA, A, Err)) {
      logMessage(LogLevel::Error, "orp-trace diff: %s: %s", PathA,
                 Err.c_str());
      return 2;
    }
    if (!whomp::OmsgStats::deserialize(BytesB, B, Err)) {
      logMessage(LogLevel::Error, "orp-trace diff: %s: %s", PathB,
                 Err.c_str());
      return 2;
    }
    diffCounter("runs", A.runs(), B.runs(), Diffs);
    diffCounter("accesses", A.accessCount(), B.accessCount(), Diffs);
    diffCounter("objects", A.objectCount(), B.objectCount(), Diffs);
    diffCounter("dimensions", A.dimensions().size(), B.dimensions().size(),
                Diffs);
    size_t Dims = std::min(A.dimensions().size(), B.dimensions().size());
    for (size_t D = 0; D != Dims; ++D)
      if (!(A.dimensions()[D] == B.dimensions()[D])) {
        ++Diffs;
        std::printf("  dimension %zu statistics differ\n", D);
      }
    std::printf("OMSG statistics differ in %d place(s)\n", Diffs);
  }
  // The byte images differed; if no semantic difference surfaced, the
  // files still encode the same profile (e.g. rewrapped checksums).
  if (Diffs == 0)
    std::printf("  (no semantic differences; byte encodings differ)\n");
  return Diffs == 0 ? 0 : 1;
}

int cmdVerify(const char *Path) {
  traceio::TraceReader Reader;
  uint64_t Events = 0;
  if (!Reader.open(Path) ||
      !Reader.forEachEvent([&](const traceio::TraceEvent &) { ++Events; })) {
    logMessage(LogLevel::Error, "orp-trace: verify FAILED: %s",
               Reader.error().c_str());
    return 1;
  }
  std::printf("%s: OK (%llu events, %llu blocks, all checksums valid)\n",
              Path, static_cast<unsigned long long>(Events),
              static_cast<unsigned long long>(Reader.info().NumBlocks));
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage(Argv[0]);
  std::string Cmd = Argv[1];
  if (Cmd == "record")
    return cmdRecord(Argc - 2, Argv + 2);
  if (Cmd == "replay")
    return cmdReplay(Argc - 2, Argv + 2);
  if (Cmd == "stats")
    return cmdStats(Argc - 2, Argv + 2);
  if (Cmd == "submit")
    return cmdSubmit(Argc - 2, Argv + 2);
  if (Cmd == "merge")
    return cmdMerge(Argc - 2, Argv + 2);
  if (Cmd == "diff" && Argc == 4)
    return cmdDiff(Argv[2], Argv[3]);
  if (Cmd == "version" || Cmd == "--version") {
    support::printVersion("orp-trace");
    return 0;
  }
  if (Cmd == "info" && Argc >= 3)
    return cmdInfo(Argc - 2, Argv + 2);
  if (Cmd == "verify" && Argc == 3)
    return cmdVerify(Argv[2]);
  return usage(Argv[0]);
}
