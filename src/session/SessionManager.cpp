//===- session/SessionManager.cpp - Many sessions, few threads -----------===//

#include "session/SessionManager.h"

#include "support/Error.h"
#include "support/LogSink.h"

using namespace orp;
using namespace orp::session;

namespace {

/// Events the manager must accept while a session is idle, per symbol of
/// its grammars, before that session's indexes are released. A rebuild
/// costs one index probe per symbol, tens of nanoseconds, against about
/// a microsecond of ingest per event, so a resumed session's rebuild
/// stays a small share of the work done while it sat idle, whatever the
/// client's pace (EXPERIMENTS.md "Idle sessions release their digram
/// indexes" has the measured bound).
constexpr uint64_t kIdleEventsPerSymbol = 1;

} // namespace

SessionManager::SessionManager(const ManagerConfig &Config)
    : Config(Config) {
  unsigned Threads = Config.Threads ? Config.Threads : 1;
  this->Config.Threads = Threads;
  if (!this->Config.IngestQueueCapacity)
    this->Config.IngestQueueCapacity = 1;
  Shards.reserve(Threads);
  for (unsigned I = 0; I != Threads; ++I)
    Shards.push_back(std::make_unique<support::QueueWorker<Token>>(
        /*QueueCapacity=*/64, [this](Token &T) {
          // Each shard thread claims the shard role for the handler.
          support::ScopedRole Role(SessionShardRole);
          processToken(T);
        }));
  Collector = telemetry::Registry::global().addCollector(
      [this](telemetry::Registry &Reg) {
        // Snapshots run on the control thread (the registry's snapshot
        // discipline), so the collector may claim the control role.
        support::ScopedRole Role(SessionControlRole);
        publishMetrics(Reg);
      });
}

SessionManager::~SessionManager() {
  // Destruction happens on the control thread, like every entry point.
  support::ScopedRole Role(SessionControlRole);
  while (!Sessions.empty())
    abort(Sessions.begin()->first);
  // Release the collector before the shards: a snapshot taken while
  // workers still run must not walk dying session state.
  Collector.release();
  for (auto &Shard : Shards)
    Shard->finish();
}

SessionId SessionManager::open(
    const std::string &Name, const SessionConfig &SessionCfg,
    const std::vector<trace::InstrInfo> &Instrs,
    const std::vector<trace::AllocSiteInfo> &Sites) {
  SessionId Id = NextId++;
  unsigned Shard = NextShard++ % static_cast<unsigned>(Shards.size());
  auto S = std::make_unique<Managed>(Id, Shard,
                                     Config.IngestQueueCapacity);
  // Appended, not prepended: GCC 12 reports a false -Wrestrict for
  // "s" + std::to_string(Id) in optimized builds.
  std::string SessionName =
      Name.empty() ? std::string("s").append(std::to_string(Id)) : Name;
  // Built on the control thread; the queue handoff of the first token
  // publishes it to the shard worker.
  S->Engine =
      std::make_unique<ProfileSession>(SessionName, SessionCfg, S->Modules);
  S->Engine->registerProbeTables(Instrs, Sites);
  S->captureModuleGauges();
  S->publishEstimate();
  S->LastUsed = ++UseClock;
  S->AcceptedAtLastBlock = AcceptedEvents;
  Sessions.emplace(Id, std::move(S));
  telemetry::Registry::global().counter("session.opened").add();
  enforceBudget();
  return Id;
}

SubmitStatus SessionManager::submitBlock(SessionId Id,
                                         const uint8_t *Payload,
                                         size_t PayloadLen,
                                         uint64_t EventCount, uint32_t Crc,
                                         uint8_t FormatVersion) {
  auto It = Sessions.find(Id);
  if (It == Sessions.end())
    return SubmitStatus::NotFound;
  Managed &S = *It->second;
  if (S.Failed.load(std::memory_order_acquire))
    return SubmitStatus::Failed;
  IngestItem Item;
  Item.K = IngestItem::Kind::Block;
  Item.Payload.assign(Payload, Payload + PayloadLen);
  Item.EventCount = EventCount;
  Item.Crc = Crc;
  Item.BlockIndex = S.NextBlockIndex;
  Item.FormatVersion = FormatVersion;
  if (!S.Ingest.tryPush(std::move(Item))) {
    telemetry::Registry::global()
        .counter("session.submit_backpressure")
        .add();
    return SubmitStatus::WouldBlock;
  }
  ++S.NextBlockIndex;
  S.Pending.fetch_add(1, std::memory_order_relaxed);
  S.LastUsed = ++UseClock;
  AcceptedEvents += EventCount;
  S.AcceptedAtLastBlock = AcceptedEvents;
  S.ReleaseQueued = false; // The block rebuilds a released index.
  submitToken(Token{&S, Token::Kind::Ingest});
  releaseIdleIndexes();
  enforceBudget();
  return SubmitStatus::Ok;
}

SubmitStatus SessionManager::submitGate(SessionId Id,
                                        support::SpscQueue<int> *Gate) {
  auto It = Sessions.find(Id);
  if (It == Sessions.end())
    return SubmitStatus::NotFound;
  Managed &S = *It->second;
  IngestItem Item;
  Item.K = IngestItem::Kind::Gate;
  Item.Gate = Gate;
  if (!S.Ingest.tryPush(std::move(Item)))
    return SubmitStatus::WouldBlock;
  S.Pending.fetch_add(1, std::memory_order_relaxed);
  S.LastUsed = ++UseClock;
  submitToken(Token{&S, Token::Kind::Ingest});
  return SubmitStatus::Ok;
}

void SessionManager::submitToken(Token T) {
  if (!Shards[T.S->Shard]->submit(std::move(T)))
    ORP_FATAL_ERROR("session: shard worker finished with sessions live");
}

void SessionManager::queueRelease(Managed &S) {
  // S is idle: the shard published its figures before its last Pending
  // decrement and writes them again only for this token, with the same
  // values.
  const size_t Index = S.IndexBytes.load(std::memory_order_relaxed);
  S.MemEstimate.store(S.MemEstimate.load(std::memory_order_relaxed) - Index,
                      std::memory_order_relaxed);
  S.IndexBytes.store(0, std::memory_order_relaxed);
  S.ReleaseQueued = true;
  submitToken(Token{&S, Token::Kind::Release});
}

void SessionManager::releaseIdleIndexes() {
  for (const auto &Entry : Sessions) {
    Managed &S = *Entry.second;
    if (S.ReleaseQueued || S.Pending.load(std::memory_order_acquire) != 0 ||
        S.IndexBytes.load(std::memory_order_relaxed) == 0)
      continue;
    if (AcceptedEvents - S.AcceptedAtLastBlock <
        kIdleEventsPerSymbol *
            S.GrammarSymbols.load(std::memory_order_relaxed))
      continue;
    queueRelease(S);
  }
}

void SessionManager::Managed::publishEstimate() {
  MemEstimate.store(Engine->memoryEstimateBytes(), std::memory_order_relaxed);
  IndexBytes.store(Engine->indexBytes(), std::memory_order_relaxed);
  GrammarSymbols.store(Engine->grammarSymbols(), std::memory_order_relaxed);
  Released.store(Engine->indexesReleased(), std::memory_order_relaxed);
}

void SessionManager::processToken(Token &T) {
  Managed &S = *T.S;
  if (T.K == Token::Kind::Finalize) {
    // The Result queue is never close()d, so this push cannot fail
    // while the handshake below is still owed.
    if (!S.Result.push(S.Engine->finalize()))
      ORP_FATAL_ERROR("session: result queue closed during finalize");
    S.FinalizeDone.store(true, std::memory_order_release);
    return;
  }
  if (T.K == Token::Kind::Release) {
    S.Engine->releaseIndexes();
    S.publishEstimate();
    S.captureModuleGauges();
    telemetry::Registry::global().counter("session.index_releases").add();
    return;
  }
  IngestItem Item;
  if (!S.Ingest.tryPop(Item))
    return; // Unreachable: exactly one token per pushed item.
  if (Item.K == IngestItem::Kind::Gate) {
    int Unused;
    // Parks this shard until the test releases (or closes) the gate;
    // either wake is fine, so the popped value is irrelevant.
    (void)Item.Gate->pop(Unused);
  } else if (!S.Failed.load(std::memory_order_relaxed)) {
    const bool WasReleased = S.Engine->indexesReleased();
    const bool Injected = S.Engine->injectBlock(
        Item.Payload.data(), Item.Payload.size(), Item.EventCount, Item.Crc,
        Item.BlockIndex, Item.FormatVersion);
    if (WasReleased && !S.Engine->indexesReleased())
      telemetry::Registry::global().counter("session.index_rebuilds").add();
    if (Injected) {
      S.Events.store(S.Engine->eventsInjected(),
                     std::memory_order_relaxed);
      S.Blocks.fetch_add(1, std::memory_order_relaxed);
      S.publishEstimate();
      S.captureModuleGauges();
    } else {
      // error() is written before this release store and never again;
      // the control thread reads it only after an acquire load.
      S.Failed.store(true, std::memory_order_release);
    }
  }
  S.Pending.fetch_sub(1, std::memory_order_release);
}

SessionArtifacts SessionManager::closeInternal(Managed &S) {
  // The shard queue is FIFO: the finalize token runs after every
  // pending ingest or release token of this session.
  submitToken(Token{&S, Token::Kind::Finalize});
  SessionArtifacts A;
  if (!S.Result.pop(A))
    ORP_FATAL_ERROR("session: result queue closed before finalize");
  // The worker is at most a few instructions from done (the pop can
  // overtake the push's notify tail); spin out that window before the
  // caller frees the session.
  while (!S.FinalizeDone.load(std::memory_order_acquire)) {
  }
  return A;
}

SessionArtifacts SessionManager::close(SessionId Id) {
  auto It = Sessions.find(Id);
  if (It == Sessions.end()) {
    SessionArtifacts A;
    A.Failed = true;
    A.Error = "unknown session id " + std::to_string(Id);
    return A;
  }
  SessionArtifacts A = closeInternal(*It->second);
  Sessions.erase(It);
  telemetry::Registry::global().counter("session.closed").add();
  return A;
}

bool SessionManager::abort(SessionId Id) {
  auto It = Sessions.find(Id);
  if (It == Sessions.end())
    return false;
  closeInternal(*It->second);
  Sessions.erase(It);
  telemetry::Registry::global().counter("session.aborted").add();
  return true;
}

bool SessionManager::stats(SessionId Id, SessionStats &Out) const {
  auto It = Sessions.find(Id);
  if (It == Sessions.end())
    return false;
  const Managed &S = *It->second;
  Out.Name = S.Engine->name();
  Out.Events = S.Events.load(std::memory_order_relaxed);
  Out.Blocks = S.Blocks.load(std::memory_order_relaxed);
  Out.Pending = S.Pending.load(std::memory_order_relaxed);
  Out.MemEstimateBytes = S.MemEstimate.load(std::memory_order_relaxed);
  Out.IndexesReleased = S.Released.load(std::memory_order_relaxed);
  Out.Failed = S.Failed.load(std::memory_order_acquire);
  Out.Error = Out.Failed ? S.Engine->error() : std::string();
  return true;
}

std::vector<SessionId> SessionManager::liveSessions() const {
  std::vector<SessionId> Ids;
  Ids.reserve(Sessions.size());
  for (const auto &Entry : Sessions)
    Ids.push_back(Entry.first);
  return Ids;
}

size_t SessionManager::totalMemoryEstimateBytes() const {
  size_t Total = 0;
  for (const auto &Entry : Sessions)
    Total += Entry.second->MemEstimate.load(std::memory_order_relaxed);
  return Total;
}

size_t SessionManager::enforceBudget() {
  if (!Config.MemoryBudgetBytes)
    return 0;
  size_t Evicted = 0;
  while (Sessions.size() > 1 &&
         totalMemoryEstimateBytes() > Config.MemoryBudgetBytes) {
    // Idle sessions only: a session with blocks in flight is mid-stream
    // and exempt. An idle session's indexes go first, largest first: a
    // release costs a rebuild should the session resume, an eviction
    // ends it. Then the LRU idle session is evicted. With no idle
    // session the budget yields — the busy sessions will drain and a
    // later submit re-checks.
    Managed *Largest = nullptr;
    Managed *Victim = nullptr;
    for (const auto &Entry : Sessions) {
      Managed &S = *Entry.second;
      if (S.Pending.load(std::memory_order_acquire) != 0)
        continue;
      const size_t Index = S.IndexBytes.load(std::memory_order_relaxed);
      if (Index != 0 && !S.ReleaseQueued &&
          (!Largest ||
           Index > Largest->IndexBytes.load(std::memory_order_relaxed)))
        Largest = &S;
      if (!Victim || S.LastUsed < Victim->LastUsed)
        Victim = &S;
    }
    if (Largest) {
      queueRelease(*Largest);
      continue;
    }
    if (!Victim)
      break;
    SessionId Id = Victim->Id;
    SessionArtifacts A = closeInternal(*Victim);
    Sessions.erase(Id);
    telemetry::Registry::global().counter("session.evicted").add();
    support::logMessage(support::LogLevel::Info,
                        "session: evicted '%s' under memory budget",
                        A.Name.c_str());
    if (OnEvict)
      OnEvict(Id, std::move(A));
    ++Evicted;
  }
  return Evicted;
}

void SessionManager::Managed::captureModuleGauges() {
  if (!telemetry::enabled())
    return;
  telemetry::MetricsSnapshot Snap = Modules.snapshot();
  support::MutexLock Lock(GaugeLock);
  ModuleGauges = std::move(Snap.Gauges);
}

void SessionManager::publishMetrics(telemetry::Registry &Reg) {
  // Runs at snapshot() time on the control thread (the registry's
  // snapshot discipline), so control-side state is safe to read here.
  Reg.gauge("session.live").set(static_cast<int64_t>(Sessions.size()));
  Reg.gauge("session.mem_estimate_bytes")
      .set(static_cast<int64_t>(totalMemoryEstimateBytes()));
  Reg.gauge("session.shards")
      .set(static_cast<int64_t>(Shards.size()));
  for (const auto &Entry : Sessions) {
    Managed &S = *Entry.second;
    const std::string Prefix = "session." + S.Engine->name() + ".";
    Reg.gauge(Prefix + "events")
        .set(static_cast<int64_t>(S.Events.load(std::memory_order_relaxed)));
    Reg.gauge(Prefix + "blocks")
        .set(static_cast<int64_t>(S.Blocks.load(std::memory_order_relaxed)));
    Reg.gauge(Prefix + "pending")
        .set(static_cast<int64_t>(S.Pending.load(std::memory_order_relaxed)));
    Reg.gauge(Prefix + "mem_estimate_bytes")
        .set(static_cast<int64_t>(
            S.MemEstimate.load(std::memory_order_relaxed)));
    Reg.gauge(Prefix + "failed")
        .set(S.Failed.load(std::memory_order_relaxed) ? 1 : 0);
    Reg.gauge(Prefix + "released")
        .set(S.Released.load(std::memory_order_relaxed) ? 1 : 0);
    support::QueueTelemetry QT = S.Ingest.telemetry();
    Reg.gauge(Prefix + "ingest_depth")
        .set(static_cast<int64_t>(QT.Depth));
    Reg.gauge(Prefix + "ingest_capacity")
        .set(static_cast<int64_t>(QT.Capacity));
    Reg.gauge(Prefix + "ingest_high_watermark")
        .set(static_cast<int64_t>(QT.HighWatermark));
    // The module gauges carry no session prefix: as when each session's
    // collectors ran here, the last-opened session's values win.
    support::MutexLock Lock(S.GaugeLock);
    for (const telemetry::MetricsSnapshot::GaugeValue &G : S.ModuleGauges)
      Reg.gauge(G.Name).set(G.Value);
  }
}
