//===- session/ProfileSession.h - One profiling session --------*- C++ -*-===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single-session profiling engine: one wired pipeline (OMC + CDC +
/// the enabled profilers) fed by still-encoded .orpt event blocks, a
/// whole trace file, or a live workload, and finalized into detached
/// profile artifacts. Every front end — `orp-trace replay`, the
/// orp-traced daemon, `orp_profile` — drives this same class, which is
/// what makes their profiles byte-identical: the pipeline never learns
/// where its events came from.
///
/// A ProfileSession is strictly single-threaded: whoever owns it (the
/// CLI main thread, or exactly one SessionManager shard worker) calls
/// every method. Cross-thread scheduling is SessionManager's job.
///
//===----------------------------------------------------------------------===//

#ifndef ORP_SESSION_PROFILESESSION_H
#define ORP_SESSION_PROFILESESSION_H

#include "core/ProfilingSession.h"
#include "leap/Leap.h"
#include "traceio/TraceReader.h"
#include "whomp/Whomp.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace orp {
namespace session {

/// Configuration of one profiling session.
struct SessionConfig {
  memsim::AllocPolicy Policy = memsim::AllocPolicy::FirstFit;
  uint64_t Seed = 0;
  bool EnableWhomp = true;
  bool EnableLeap = true;
  unsigned MaxLmads = 30;
  /// Worker threads inside each enabled profiler (CLI --threads). The
  /// artifacts are byte-identical at any value (DESIGN.md section 10);
  /// SessionManager keeps this at 1 and parallelizes across sessions
  /// instead.
  unsigned ProfilerThreads = 1;
};

/// The configuration of the run \p Reader's trace was recorded from:
/// the allocator policy and environment seed of its header, every other
/// field at its default.
SessionConfig recordedConfig(const traceio::TraceReader &Reader);

/// The finished products of one session.
struct SessionArtifacts {
  std::string Name;
  std::vector<uint8_t> Omsg; ///< OmsgArchive bytes; empty when disabled.
  std::vector<uint8_t> Leap; ///< LeapProfileData bytes; empty if disabled.
  uint64_t Events = 0;       ///< Events injected over the session's life.
  bool Failed = false;       ///< A block failed to decode (see Error).
  std::string Error;
};

/// One profiling session: pipeline, profilers, artifacts.
class ProfileSession {
public:
  /// The module collectors (CDC/OMC, WHOMP, LEAP) are registered on
  /// \p Collectors; only the owning thread may snapshot that registry.
  ProfileSession(
      std::string Name, const SessionConfig &Config,
      telemetry::Registry &Collectors = telemetry::Registry::global());
  ~ProfileSession();

  ProfileSession(const ProfileSession &) = delete;
  ProfileSession &operator=(const ProfileSession &) = delete;

  const std::string &name() const { return Name; }
  const SessionConfig &config() const { return Config; }

  /// The underlying pipeline, for front ends that attach extra sinks
  /// (RASG baseline, metrics tickers) or run a live workload against
  /// memory()/registry(). Sinks and consumers attached here must outlive
  /// the session: an unfinalized session's destructor finishes the
  /// pipeline, which calls their onFinish().
  core::ProfilingSession &core() { return *Core; }

  /// The enabled profilers (nullptr when disabled), for front ends that
  /// print summary statistics. With ProfilerThreads > 1 their accessors
  /// are only valid after finalize().
  whomp::WhompProfiler *whomp() { return Whomp.get(); }
  leap::LeapProfiler *leap() { return Leap.get(); }

  /// Registers recorded probe-site tables (an OPEN frame's payload or a
  /// TraceReader's tables) into the session registry. Call once, before
  /// any injection.
  void
  registerProbeTables(const std::vector<trace::InstrInfo> &Instrs,
                      const std::vector<trace::AllocSiteInfo> &Sites);

  /// Verifies and decodes one still-encoded .orpt event block payload
  /// and injects its events into the pipeline. \p FormatVersion is the
  /// payload's .orpt format version as its sender states it (EVENTS
  /// frames carry it; a file replay uses the header's); anything but
  /// traceio::kFormatVersionV2 fails the session with "block N:
  /// unsupported format version V". The block decodes into a
  /// traceio::DecodedBlock and its accesses are injected a whole slice
  /// at a time, and a block that fails to decode injects none of its
  /// events. \p BlockIndex labels diagnostics (the sender's running
  /// block count). Returns false — latching failed()/error() — on a
  /// corrupt block; the session then rejects further injection but can
  /// still be finalized.
  /// After finalize() it returns false with error() "session already
  /// finalized" and changes nothing: failed() and the artifacts stay as
  /// they were.
  bool injectBlock(const uint8_t *Payload, size_t Len, uint64_t EventCount,
                   uint32_t Crc, uint64_t BlockIndex,
                   uint8_t FormatVersion);

  /// Registers \p Reader's probe tables and replays its event blocks
  /// [\p FirstBlock, \p EndBlock) — the defaults cover the whole trace;
  /// \p EndBlock is clamped to the block count. Blocks are the trace's
  /// only safe split points: events inside one are delta-coded against
  /// each other. With \p DecodeThreads > 1 one worker decodes the next
  /// blocks while this thread injects the current one; the pipeline is
  /// only ever touched from this thread, so delivery order and artifacts
  /// are identical either way. \p BlockDone, when set, runs on the
  /// calling thread after each block with the index of the next block —
  /// the resume point a checkpoint() taken from inside the callback
  /// would encode. Returns false, latching failed()/error(), on a
  /// corrupt block or an allocation the OMC cannot register (events
  /// before the bad block or allocation stay injected), and after
  /// finalize() just as injectBlock() does.
  bool replayFrom(traceio::TraceReader &Reader, unsigned DecodeThreads = 1,
                  uint64_t FirstBlock = 0,
                  uint64_t EndBlock = ~static_cast<uint64_t>(0),
                  const std::function<void(uint64_t)> &BlockDone = {});

  /// Serializes the session's resumable state as an ORCK artifact:
  /// progress (\p NextBlock, cumulative event count), the session
  /// configuration, \p Reader's identity (block/event counts) and the
  /// OMC's authoritative state. Profiler state is deliberately not
  /// captured: a resumed session profiles its own block range from
  /// scratch and its artifacts are folded into the earlier segment's
  /// with the profile merge operations (DESIGN.md section 17). Call
  /// only at a block boundary (from a replayFrom BlockDone callback,
  /// or after a ranged replay returns).
  std::vector<uint8_t> checkpoint(const traceio::TraceReader &Reader,
                                  uint64_t NextBlock);

  /// Restores a checkpoint() image into this freshly constructed
  /// session, validating it against this session's configuration and
  /// \p Reader's identity. On success \p NextBlock is the first block
  /// still to replay and eventsInjected() already counts the events
  /// before it. Returns false with \p Err set on malformed input, a
  /// config/trace mismatch, or an OMC state the deep validator
  /// (check::OmcValidator) rejects; the session is then left as it was.
  [[nodiscard]] bool restoreCheckpoint(const std::vector<uint8_t> &Bytes,
                                       const traceio::TraceReader &Reader,
                                       uint64_t &NextBlock,
                                       std::string &Err);

  /// ORCK artifact framing (mirrors the LEAP/OMSA header layout).
  static constexpr uint8_t kCheckpointMagic[4] = {'O', 'R', 'C', 'K'};
  static constexpr uint8_t kCheckpointVersion = 1;

  /// Gives back the four WHOMP grammars' digram indexes while no block
  /// is being injected (WhompProfiler::releaseIndexes). The next
  /// injectBlock() or replayFrom() rebuilds them exactly, once, before
  /// its first event, so the artifacts are byte-identical at any release
  /// schedule; finalize() seals released grammars without rebuilding
  /// them. A no-op with WHOMP disabled or threaded, and once finalized.
  void releaseIndexes();

  /// True while releaseIndexes() holds the indexes given back.
  bool indexesReleased() const;

  /// Bytes the four WHOMP grammars' digram indexes map (what
  /// releaseIndexes() would give back), and the symbols their rule bodies
  /// hold (a rebuild's work: one index probe each). Both 0 with WHOMP
  /// disabled or threaded.
  size_t indexBytes() const;
  uint64_t grammarSymbols() const;

  /// Finishes the pipeline (once) and builds the detached artifacts.
  /// Finishing seals WHOMP's grammars: each serializes once into its
  /// image and gives back its digram index and slab arena, and the OMSG
  /// archive is built from those images. The profilers stay readable
  /// afterwards (whomp()->sizes(), whomp()->imageFor() with its
  /// ruleStats() and dump(), the whomp.* gauges), all answered from the
  /// images. Idempotent in effect but rebuilds the artifact bytes each
  /// call — call once at end of life.
  SessionArtifacts finalize();

  bool failed() const { return Failed; }
  const std::string &error() const { return Err; }
  uint64_t eventsInjected() const { return Events; }

  /// Resident-footprint estimate of the session's pipeline state — the
  /// quantity SessionManager's memory budget and LRU eviction operate
  /// on. The four WHOMP grammars count their real bytes
  /// (SequiturStreamCompressor::footprintBytes: the builder's slabs plus
  /// digram-index mapped pages, and after finalize() only the images'
  /// bytes); OMC groups/live objects and the LEAP profile size add
  /// nominal weights that grow with real usage.
  size_t memoryEstimateBytes();

private:
  /// After finalize(): sets error() and returns true.
  bool rejectFinalized();

  std::string Name;
  SessionConfig Config;
  std::unique_ptr<core::ProfilingSession> Core;
  std::unique_ptr<whomp::WhompProfiler> Whomp;
  std::unique_ptr<leap::LeapProfiler> Leap;
  uint64_t Events = 0;
  bool Failed = false;
  bool Finished = false;
  std::string Err;
};

} // namespace session
} // namespace orp

#endif // ORP_SESSION_PROFILESESSION_H
