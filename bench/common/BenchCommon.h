//===- bench/common/BenchCommon.h - Shared bench harness code --*- C++ -*-===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the figure/table reproduction binaries. Every bench
/// records each workload once into a temporary .orpt and replays it
/// through session::ProfileSession, the engine behind every tool, with
/// its baselines attached to the session's pipeline; it prints the
/// paper's rows/series plus a paper-vs-measured note (EXPERIMENTS.md).
///
//===----------------------------------------------------------------------===//

#ifndef ORP_BENCH_COMMON_BENCHCOMMON_H
#define ORP_BENCH_COMMON_BENCHCOMMON_H

#include "analysis/Mdf.h"
#include "session/ProfileSession.h"
#include "support/Histogram.h"
#include "traceio/TraceReader.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace orp {
namespace bench {

/// The paper's LMAD budget per (instruction, group) pair (A1 sweeps it).
constexpr unsigned kPaperMaxLmads = 30;

/// Names of the 7 SPEC2000 analogues in the paper's table order.
const std::vector<std::string> &specNames();

/// Parses the optional scale argument (argv[1]); defaults to 1. The
/// scale multiplies workload sizes, mirroring the train/ref input-set
/// distinction.
uint64_t parseScale(int Argc, char **Argv);

/// Per-run parameters.
struct RunConfig {
  uint64_t Scale = 1;
  uint64_t InputSeed = 42;
  uint64_t EnvSeed = 0; ///< Allocator/linker environment of this run.
  memsim::AllocPolicy Policy = memsim::AllocPolicy::FirstFit;
};

/// A private directory under /tmp (mkdtemp), removed with everything in
/// it when it goes out of scope: concurrent runs never share a path and
/// no return leaves a file behind.
class ScratchDir {
public:
  ScratchDir();
  ~ScratchDir();
  ScratchDir(const ScratchDir &) = delete;
  ScratchDir &operator=(const ScratchDir &) = delete;
  std::string file(const std::string &Leaf) const { return Path + "/" + Leaf; }

private:
  std::string Path;
};

/// Runs workload \p Name live against \p Memory and \p Registry. Returns
/// the wall-clock seconds of the workload body.
double runWorkload(const std::string &Name, const RunConfig &Config,
                   trace::MemoryInterface &Memory,
                   trace::InstructionRegistry &Registry);

/// Runs \p Name on a bare runtime with no sinks: probes reduce to a clock
/// increment, the analogue of the uninstrumented binary (Table 1's
/// dilation baseline). Returns wall-clock seconds.
double runNative(const std::string &Name, const RunConfig &Config);

/// Runs \p Name live once with a traceio::TraceWriter as its only sink,
/// into a ScratchDir, and returns a reader on the recording; the file is
/// gone when this returns (the reader keeps its mapping). Failure is
/// fatal.
std::unique_ptr<traceio::TraceReader> recordTrace(const std::string &Name,
                                                  const RunConfig &Config);

/// \p Trace's recorded configuration with the session profilers chosen.
session::SessionConfig sessionConfig(const traceio::TraceReader &Trace,
                                     bool Whomp, bool Leap,
                                     unsigned MaxLmads = kPaperMaxLmads);

/// Replays all of \p Trace through \p Session and finalizes it into
/// \p Artifacts (when given); a failed replay is fatal. Returns the
/// wall-clock seconds of replay plus finalize.
double replay(session::ProfileSession &Session, traceio::TraceReader &Trace,
              session::SessionArtifacts *Artifacts = nullptr);

/// The three MDF maps of one benchmark run (Figures 6-8).
struct MdfResults {
  analysis::MdfMap Exact;   ///< Lossless raw-address dependence profile.
  analysis::MdfMap Leap;    ///< LEAP through its MDF post-processor.
  analysis::MdfMap Connors; ///< Window baseline at its default size.
};

/// Records \p Name once and computes all three MDF maps from one replay:
/// LEAP enabled in the session, the two baselines as raw sinks.
MdfResults runMdfExperiment(const std::string &Name, uint64_t Scale);

/// Adds each bucket of \p From to \p Into at the bucket's midpoint.
void accumulate(Histogram &Into, const Histogram &From);

/// Prints the standard bench header: experiment id and the paper claim
/// the bench regenerates.
void printHeader(const char *Experiment, const char *PaperClaim);

/// Renders a proportional ASCII bar for |Value| out of 100.
std::string bar(double Value, unsigned Width = 40);

} // namespace bench
} // namespace orp

#endif // ORP_BENCH_COMMON_BENCHCOMMON_H
