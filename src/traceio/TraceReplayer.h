//===- traceio/TraceReplayer.h - Re-drive sessions from traces -*- C++ -*-===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Replays a recorded .orpt trace into a fresh ProfilingSession: the
/// recorded probe-site tables are re-registered into the session's
/// InstructionRegistry and every event is injected, in original delivery
/// order and with original timestamps, into the session's sinks (CDC and
/// any attached raw sinks). Profiles built from a replayed trace are
/// bit-identical to the live in-process run — collection and analysis
/// can happen on different machines, at different times.
///
//===----------------------------------------------------------------------===//

#ifndef ORP_TRACEIO_TRACEREPLAYER_H
#define ORP_TRACEIO_TRACEREPLAYER_H

#include "core/ProfilingSession.h"
#include "traceio/TraceReader.h"

#include <functional>
#include <memory>
#include <string>

namespace orp {
namespace traceio {

/// Replays an opened TraceReader into profiling sessions.
class TraceReplayer {
public:
  /// Blocks a decode worker may buffer ahead of the injecting thread.
  static constexpr size_t DecodeQueueDepth = 2;

  /// \p Reader must have been open()ed successfully and must outlive
  /// the replayer.
  explicit TraceReplayer(TraceReader &Reader) : Reader(Reader) {}

  /// With \p N > 1, replayInto() double-buffers: a worker thread
  /// decodes the next .orpt blocks while this thread injects the
  /// current one. Event delivery order — and therefore every profile
  /// built from the replay — is unchanged; the session's sinks are
  /// only ever touched from the calling thread.
  void setThreads(unsigned N) { Threads = N; }

  /// Creates a session configured exactly like the recorded run (same
  /// allocator policy and environment seed, though replay never touches
  /// the allocator), with \p Unknown forwarded to the CDC.
  std::unique_ptr<core::ProfilingSession> makeSession(
      core::UnknownAddressPolicy Unknown =
          core::UnknownAddressPolicy::Drop) const;

  /// Restricts the next replayInto() to event blocks [\p First,
  /// \p End) — \p End is clamped to the block count. Blocks are the
  /// trace's only safe split points: events inside one are delta-coded
  /// against each other. Defaults to the whole trace.
  void setBlockRange(size_t First, size_t End) {
    FirstBlock = First;
    EndBlock = End;
  }

  /// Installs \p Cb, invoked on the injecting thread after each block's
  /// events have been delivered, with the index of the *next* block —
  /// i.e. the resume point a checkpoint taken now would encode. The
  /// callback may serialize session state freely: no decode worker ever
  /// touches the session.
  void setBlockCallback(std::function<void(size_t)> Cb) {
    BlockDone = std::move(Cb);
  }

  /// Re-registers the recorded probe sites into \p Session's registry
  /// and injects the full event stream. When \p CallFinish is set the
  /// session is finish()ed afterwards (the trace already contains the
  /// recorded run's static frees, so finishing only notifies sinks).
  /// Returns false with error() set when the trace is corrupt or holds
  /// an allocation the OMC cannot register (see
  /// core::ProfilingSession::injectAlloc); events before the bad one
  /// stay injected.
  [[nodiscard]] bool replayInto(core::ProfilingSession &Session, bool CallFinish = true);

  /// Events delivered by the last replayInto().
  uint64_t eventsReplayed() const { return Replayed; }

  /// Why the last replayInto() failed: a refused allocation, else the
  /// reader's error; empty after a success.
  const std::string &error() const {
    return Err.empty() ? Reader.error() : Err;
  }

private:
  TraceReader &Reader;
  std::string Err;
  uint64_t Replayed = 0;
  unsigned Threads = 1;
  size_t FirstBlock = 0;
  size_t EndBlock = ~static_cast<size_t>(0);
  std::function<void(size_t)> BlockDone;
};

} // namespace traceio
} // namespace orp

#endif // ORP_TRACEIO_TRACEREPLAYER_H
