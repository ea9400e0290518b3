//===- session/SessionManager.h - Many sessions, few threads ---*- C++ -*-===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Multiplexes N independent ProfileSessions over a small pool of
/// scheduler shards (support::QueueWorker). Each session is pinned to
/// one shard at open() — every block of a session is processed by that
/// one worker, in submission order, so a session's pipeline state has a
/// single owner and its profile is byte-identical at any shard count
/// and under any interleaving with other sessions (the determinism
/// contract of DESIGN.md section 10, lifted from threads to sessions).
///
/// Flow control is per session: each session has a bounded ingest queue
/// and submitBlock() returns WouldBlock instead of blocking when it is
/// full — the daemon translates that into a stalled client connection
/// rather than a stalled control loop.
///
/// Idle sessions give their WHOMP digram indexes back. An index is
/// derived state (ProfileSession::releaseIndexes), so the control thread
/// queues a release for a session with no blocks in flight once the
/// manager has accepted, since that session's last block, at least as
/// many events as its grammars hold symbols: rebuilding the index when
/// the session resumes costs one index probe per symbol, a few percent
/// of the ingest work the other sessions were given meanwhile. A
/// configurable memory budget is enforced first by releasing idle
/// sessions' indexes, largest first, then by LRU-evicting *idle*
/// sessions: eviction finalizes the victim like a normal close and hands
/// its artifacts to the eviction handler.
///
/// Threading discipline: every public method is called from ONE control
/// thread (the daemon's poll loop, or a test's main thread). The shards
/// are the only other threads, and all control<->shard traffic flows
/// through SpscQueues; counters the control thread may read mid-flight
/// are atomics. Each session's module collectors (CDC/OMC, WHOMP, LEAP)
/// live on a per-session registry that only the owning shard snapshots,
/// after each block; the control thread's telemetry snapshot republishes
/// the copy under a lock, never reading the modules. The discipline is
/// machine-checked under Clang's -Wthread-safety: public methods require
/// the SessionControlRole capability, the shard handler requires
/// SessionShardRole, and the control-side members are ORP_GUARDED_BY the
/// control role (see support/ThreadSafety.h and DESIGN.md section 16).
///
//===----------------------------------------------------------------------===//

#ifndef ORP_SESSION_SESSIONMANAGER_H
#define ORP_SESSION_SESSIONMANAGER_H

#include "session/ProfileSession.h"
#include "support/ThreadSafety.h"
#include "support/WorkerPool.h"
#include "telemetry/Registry.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace orp {
namespace session {

/// The "runs on the session control thread" capability. Exactly one
/// thread per process claims it (the daemon's poll loop or a test's
/// main thread) with a support::ScopedRole; every SessionManager and
/// Daemon entry point requires it.
inline support::ThreadRole SessionControlRole;

/// The "runs on a scheduler shard worker" capability, claimed by each
/// shard's handler lambda around processToken().
inline support::ThreadRole SessionShardRole;

/// Scheduler/limit configuration of one SessionManager.
struct ManagerConfig {
  unsigned Threads = 1;           ///< Scheduler shard count (>= 1).
  size_t IngestQueueCapacity = 8; ///< Per-session bounded ingest queue.
  size_t MemoryBudgetBytes = 0;   ///< LRU-evict over this; 0 = unlimited.
};

/// Result of a submit call. [[nodiscard]]: dropping the status loses a
/// WouldBlock (the block was NOT enqueued and must be retried).
enum class [[nodiscard]] SubmitStatus {
  Ok,         ///< Enqueued.
  WouldBlock, ///< Ingest queue full — retry later (backpressure).
  NotFound,   ///< No such session id.
  Failed,     ///< Session already failed on a corrupt block.
};

using SessionId = uint64_t;

/// Point-in-time view of one managed session (control thread only).
struct SessionStats {
  std::string Name;
  uint64_t Events = 0;       ///< Events injected so far.
  uint64_t Blocks = 0;       ///< Blocks fully processed.
  uint64_t Pending = 0;      ///< Blocks submitted but not yet processed.
  /// ProfileSession::memoryEstimateBytes() as of the last block, less the
  /// digram indexes once a release is queued.
  size_t MemEstimateBytes = 0;
  /// The session's digram indexes are given back (its shard ran the
  /// release, and no block has rebuilt them since).
  bool IndexesReleased = false;
  bool Failed = false;
  std::string Error;         ///< Meaningful once Failed.
};

/// Owns and schedules the live sessions.
class SessionManager {
public:
  /// Called for each session evicted by the memory budget, on the
  /// control thread, with the victim's finalized artifacts.
  using EvictionHandler =
      std::function<void(SessionId, SessionArtifacts)>;

  explicit SessionManager(const ManagerConfig &Config);

  /// Closes (and discards) every remaining session.
  ~SessionManager();

  SessionManager(const SessionManager &) = delete;
  SessionManager &operator=(const SessionManager &) = delete;

  void setEvictionHandler(EvictionHandler Handler)
      ORP_REQUIRES(SessionControlRole) {
    OnEvict = std::move(Handler);
  }

  /// Opens a session: builds its pipeline, registers \p Instrs /
  /// \p Sites, pins it to a shard (round-robin). Returns its id.
  [[nodiscard]] SessionId
  open(const std::string &Name, const SessionConfig &Config,
       const std::vector<trace::InstrInfo> &Instrs,
       const std::vector<trace::AllocSiteInfo> &Sites)
      ORP_REQUIRES(SessionControlRole);

  /// Hands one still-encoded event-block payload (copied) to the
  /// session's shard. \p FormatVersion is the .orpt format the sender
  /// says the payload is encoded in; the shard's injectBlock fails the
  /// session unless it is traceio::kFormatVersionV2. Never blocks: a
  /// full ingest queue returns WouldBlock and the caller retries the
  /// same block later.
  SubmitStatus submitBlock(SessionId Id, const uint8_t *Payload,
                           size_t PayloadLen, uint64_t EventCount,
                           uint32_t Crc, uint8_t FormatVersion)
      ORP_REQUIRES(SessionControlRole);

  /// Test hook: occupies one ingest slot (and the session's shard) until
  /// an element is pushed into \p Gate. Makes queue-full backpressure
  /// and busy/idle eviction states deterministic to construct.
  SubmitStatus submitGate(SessionId Id, support::SpscQueue<int> *Gate)
      ORP_REQUIRES(SessionControlRole);

  /// Drains the session's pending blocks, finalizes its profile on the
  /// owning shard, removes it and returns the artifacts. Blocks the
  /// control thread until the shard has caught up.
  SessionArtifacts close(SessionId Id) ORP_REQUIRES(SessionControlRole);

  /// close() with the artifacts discarded (a disconnected client's
  /// orphans). Returns false when \p Id is unknown.
  bool abort(SessionId Id) ORP_REQUIRES(SessionControlRole);

  /// Point-in-time stats of one session; false when unknown.
  [[nodiscard]] bool stats(SessionId Id, SessionStats &Out) const
      ORP_REQUIRES(SessionControlRole);

  size_t numLiveSessions() const ORP_REQUIRES(SessionControlRole) {
    return Sessions.size();
  }
  std::vector<SessionId> liveSessions() const
      ORP_REQUIRES(SessionControlRole);

  /// Sum of the live sessions' memory estimates.
  size_t totalMemoryEstimateBytes() const
      ORP_REQUIRES(SessionControlRole);

  /// While over budget, releases the digram indexes of idle sessions,
  /// largest first, and once none is left to release, evicts LRU idle
  /// sessions. Runs automatically after open() and every accepted
  /// submit; exposed for tests and for callers that mutated the budget's
  /// inputs out of band. Returns the number of sessions evicted.
  size_t enforceBudget() ORP_REQUIRES(SessionControlRole);


  const ManagerConfig &config() const { return Config; }

private:
  /// One block (or test gate) travelling control -> shard.
  struct IngestItem {
    enum class Kind : uint8_t { Block, Gate } K = Kind::Block;
    std::vector<uint8_t> Payload;
    uint64_t EventCount = 0;
    uint32_t Crc = 0;
    uint64_t BlockIndex = 0;
    uint8_t FormatVersion = 0;
    support::SpscQueue<int> *Gate = nullptr;
  };

  /// A live session plus its scheduling state.
  struct Managed {
    Managed(SessionId Id, unsigned Shard, size_t QueueCapacity)
        : Id(Id), Shard(Shard), Ingest(QueueCapacity), Result(1) {}

    /// Snapshots the module collectors into ModuleGauges. Runs on the
    /// thread that owns Engine (the shard, or open() before the first
    /// token).
    void captureModuleGauges();

    SessionId Id;
    unsigned Shard;
    /// The collectors of Engine's modules. Declared before Engine, which
    /// must be destroyed first.
    telemetry::Registry Modules;
    /// Touched only by the owning shard worker between open() and the
    /// Result handshake of close().
    std::unique_ptr<ProfileSession> Engine;
    support::Mutex GaugeLock;
    /// The module gauges as of the last block.
    std::vector<telemetry::MetricsSnapshot::GaugeValue>
        ModuleGauges ORP_GUARDED_BY(GaugeLock);
    support::SpscQueue<IngestItem> Ingest;
    support::SpscQueue<SessionArtifacts> Result;
    /// Set by the shard worker *after* the Result push: the worker's
    /// very last touch of this struct. close() waits for it before
    /// destroying the session, so the Result queue is never torn down
    /// under the worker's still-returning push.
    std::atomic<bool> FinalizeDone{false};
    /// Publishes the engine's estimate and index figures below. Runs on
    /// the thread that owns Engine.
    void publishEstimate();

    std::atomic<uint64_t> Pending{0};
    std::atomic<uint64_t> Events{0};
    std::atomic<uint64_t> Blocks{0};
    std::atomic<size_t> MemEstimate{0};
    /// ProfileSession::indexBytes() and grammarSymbols(), published with
    /// MemEstimate.
    std::atomic<size_t> IndexBytes{0};
    std::atomic<uint64_t> GrammarSymbols{0};
    /// ProfileSession::indexesReleased(), published by the shard.
    std::atomic<bool> Released{false};
    std::atomic<bool> Failed{false};
    /// Control-side LRU stamp (bumped on every accepted submit).
    uint64_t LastUsed ORP_GUARDED_BY(SessionControlRole) = 0;
    /// Control-side running block count, labelling diagnostics.
    uint64_t NextBlockIndex ORP_GUARDED_BY(SessionControlRole) = 0;
    /// The manager's AcceptedEvents just after this session's last
    /// accepted block (or its open()).
    uint64_t AcceptedAtLastBlock ORP_GUARDED_BY(SessionControlRole) = 0;
    /// A release is queued and no block has been accepted since.
    bool ReleaseQueued ORP_GUARDED_BY(SessionControlRole) = false;
  };

  /// One unit of shard work on session S: process one ingest item,
  /// release its digram indexes, or finalize it.
  struct Token {
    enum class Kind : uint8_t { Ingest, Release, Finalize };
    Managed *S = nullptr;
    Kind K = Kind::Ingest;
  };

  /// Hands \p T to its session's shard.
  void submitToken(Token T) ORP_REQUIRES(SessionControlRole);
  /// Queues an index release for every session that has been idle long
  /// enough (see the file comment): no block in flight, indexes held,
  /// and at least as many events accepted since its last block as its
  /// grammars hold symbols. Runs after every accepted submit.
  void releaseIdleIndexes() ORP_REQUIRES(SessionControlRole);
  /// Queues a release of \p S's indexes (S must be idle) and counts them
  /// out of its estimate at once, so that enforceBudget() sees the drop
  /// before the shard runs it.
  void queueRelease(Managed &S) ORP_REQUIRES(SessionControlRole);
  void processToken(Token &T) ORP_REQUIRES(SessionShardRole);
  SessionArtifacts closeInternal(Managed &S)
      ORP_REQUIRES(SessionControlRole);
  void publishMetrics(telemetry::Registry &Reg)
      ORP_REQUIRES(SessionControlRole);

  ManagerConfig Config;
  std::vector<std::unique_ptr<support::QueueWorker<Token>>> Shards;
  std::map<SessionId, std::unique_ptr<Managed>> Sessions
      ORP_GUARDED_BY(SessionControlRole);
  SessionId NextId ORP_GUARDED_BY(SessionControlRole) = 1;
  unsigned NextShard ORP_GUARDED_BY(SessionControlRole) = 0;
  uint64_t UseClock ORP_GUARDED_BY(SessionControlRole) = 0;
  /// Events of every block accepted so far, over all sessions.
  uint64_t AcceptedEvents ORP_GUARDED_BY(SessionControlRole) = 0;
  EvictionHandler OnEvict ORP_GUARDED_BY(SessionControlRole);
  telemetry::CollectorHandle Collector;
};

} // namespace session
} // namespace orp

#endif // ORP_SESSION_SESSIONMANAGER_H
