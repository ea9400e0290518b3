//===- telemetry/Registry.cpp - Named metric registry ---------------------===//

#include "telemetry/Registry.h"

#include "support/LogSink.h"
#include "support/ThreadSafety.h"

#include <atomic>
#include <map>
#include <memory>
#include <utility>
#include <vector>

using namespace orp;
using namespace orp::telemetry;

namespace {
/// Global recording switch (see Metric.h). Default on: instrumentation
/// should observe a normal run without any flag.
std::atomic<bool> RecordingEnabled{true};

/// Next shard to hand out; threads claim one on first use.
std::atomic<uint64_t> NextShard{0};
} // namespace

bool telemetry::enabled() {
  return RecordingEnabled.load(std::memory_order_relaxed);
}

void telemetry::setEnabled(bool On) {
  RecordingEnabled.store(On, std::memory_order_relaxed);
}

size_t detail::threadShard() {
  thread_local size_t Shard =
      static_cast<size_t>(NextShard.fetch_add(1, std::memory_order_relaxed)) %
      kShards;
  return Shard;
}

namespace {

/// A test-and-set spinlock carrying the capability attribute, so the
/// registry's locking discipline is checked under -Wthread-safety like
/// the support-layer Mutex. (This file is one of the sanctioned
/// non-relaxed-atomics sites; see orp-analyze's atomics check.)
class ORP_CAPABILITY("mutex") SpinLock {
public:
  void lock() ORP_ACQUIRE() ORP_NO_THREAD_SAFETY_ANALYSIS {
    while (Flag.test_and_set(std::memory_order_acquire)) {
    }
  }
  void unlock() ORP_RELEASE() ORP_NO_THREAD_SAFETY_ANALYSIS {
    Flag.clear(std::memory_order_release);
  }

private:
  std::atomic_flag Flag = ATOMIC_FLAG_INIT;
};

} // namespace

/// Registry internals. Registration, collector management and snapshot
/// are all cold paths, so a spinlock is plenty (and keeps std::mutex
/// confined to src/support per lint rule raw-thread). Metrics live in
/// node-based maps: references handed out stay valid as the maps grow.
struct Registry::Impl {
  SpinLock Lock;

  std::map<std::string, std::unique_ptr<Counter>> Counters
      ORP_GUARDED_BY(Lock);
  std::map<std::string, std::unique_ptr<Gauge>> Gauges
      ORP_GUARDED_BY(Lock);
  std::map<std::string, std::unique_ptr<Histogram>> Histograms
      ORP_GUARDED_BY(Lock);
  std::map<std::string, std::unique_ptr<PhaseTimer>> Timers
      ORP_GUARDED_BY(Lock);

  struct Collector {
    uint64_t Id;
    std::function<void(Registry &)> Fn;
  };
  std::vector<Collector> Collectors ORP_GUARDED_BY(Lock);
  uint64_t NextCollectorId ORP_GUARDED_BY(Lock) = 1;

  /// Scoped spinlock guard.
  struct ORP_SCOPED_CAPABILITY Guard {
    Impl &I;
    explicit Guard(Impl &I) ORP_ACQUIRE(I.Lock) : I(I) { I.Lock.lock(); }
    ~Guard() ORP_RELEASE() { I.Lock.unlock(); }
  };

  /// Finds or creates the metric named \p Name in \p Table.
  template <typename M>
  M &lookupOrCreate(std::map<std::string, std::unique_ptr<M>> &Table,
                    const std::string &Name) ORP_EXCLUDES(Lock) {
    Guard G(*this);
    std::unique_ptr<M> &Slot = Table[Name];
    if (!Slot)
      Slot = std::make_unique<M>();
    return *Slot;
  }
};

Registry::Registry() : I(std::make_unique<Impl>()) {}

Registry::~Registry() = default;

Registry &Registry::global() {
  static Registry R;
  return R;
}

Counter &Registry::counter(const std::string &Name) {
  return I->lookupOrCreate(I->Counters, Name);
}

Gauge &Registry::gauge(const std::string &Name) {
  return I->lookupOrCreate(I->Gauges, Name);
}

Histogram &Registry::histogram(const std::string &Name) {
  return I->lookupOrCreate(I->Histograms, Name);
}

PhaseTimer &Registry::timer(const std::string &Name) {
  return I->lookupOrCreate(I->Timers, Name);
}

CollectorHandle Registry::addCollector(std::function<void(Registry &)> Fn) {
  Impl::Guard G(*I);
  uint64_t Id = I->NextCollectorId++;
  I->Collectors.push_back({Id, std::move(Fn)});
  return CollectorHandle(this, Id);
}

void Registry::removeCollector(uint64_t Id) {
  Impl::Guard G(*I);
  for (size_t N = 0; N != I->Collectors.size(); ++N)
    if (I->Collectors[N].Id == Id) {
      I->Collectors.erase(I->Collectors.begin() + N);
      return;
    }
}

void CollectorHandle::release() {
  if (Owner)
    Owner->removeCollector(Id);
  Owner = nullptr;
}

MetricsSnapshot Registry::snapshot() {
  // Run the collectors outside the spinlock: they call back into
  // counter()/gauge() which take it. Copy the list first so a collector
  // registering another collector can't invalidate the iteration.
  std::vector<std::function<void(Registry &)>> Fns;
  {
    Impl::Guard G(*I);
    Fns.reserve(I->Collectors.size());
    for (const Impl::Collector &C : I->Collectors)
      Fns.push_back(C.Fn);
  }
  for (const auto &Fn : Fns)
    Fn(*this);

  // Fold the support log sink's per-level counts in, so every snapshot
  // reports diagnostics traffic without the sink depending on this
  // module (support sits below telemetry in the layering).
  static const char *const LogNames[support::kNumLogLevels] = {
      "log.info", "log.warn", "log.error", "log.fatal"};
  for (unsigned L = 0; L != support::kNumLogLevels; ++L) {
    uint64_t N = support::logMessageCount(static_cast<support::LogLevel>(L));
    Gauge &G = gauge(LogNames[L]);
    G.set(static_cast<int64_t>(N));
  }

  MetricsSnapshot S;
  Impl::Guard G(*I);
  S.Counters.reserve(I->Counters.size());
  for (const auto &KV : I->Counters)
    S.Counters.push_back({KV.first, KV.second->value()});
  S.Gauges.reserve(I->Gauges.size());
  for (const auto &KV : I->Gauges)
    S.Gauges.push_back({KV.first, KV.second->value()});
  S.Histograms.reserve(I->Histograms.size());
  for (const auto &KV : I->Histograms) {
    MetricsSnapshot::HistogramValue H;
    H.Name = KV.first;
    H.Bounds.reserve(Histogram::kBuckets);
    H.Buckets.reserve(Histogram::kBuckets);
    for (size_t B = 0; B != Histogram::kBuckets; ++B) {
      H.Bounds.push_back(Histogram::bucketBound(B));
      H.Buckets.push_back(KV.second->bucketCount(B));
    }
    H.Count = KV.second->count();
    H.Sum = KV.second->sum();
    S.Histograms.push_back(std::move(H));
  }
  S.Timers.reserve(I->Timers.size());
  for (const auto &KV : I->Timers)
    S.Timers.push_back({KV.first, KV.second->count(), KV.second->totalNanos()});
  return S;
}

void Registry::resetValues() {
  Impl::Guard G(*I);
  for (auto &KV : I->Counters)
    KV.second->reset();
  for (auto &KV : I->Gauges)
    KV.second->reset();
  for (auto &KV : I->Histograms)
    KV.second->reset();
  for (auto &KV : I->Timers)
    KV.second->reset();
}
