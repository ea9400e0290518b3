//===- support/WorkerPool.h - Pipeline worker threads ----------*- C++ -*-===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The repository's threading layer. Two tiny primitives cover every
/// parallel stage of the profiling pipeline:
///
///   * QueueWorker<Item>: a thread draining a bounded SpscQueue through
///     a handler. The owner submit()s batches; the worker processes them
///     strictly in submission order and finish() drains + joins. Used
///     for WHOMP's per-dimension grammar workers and LEAP's substream
///     shards, where the worker *exclusively owns* the state its
///     handler mutates — no locks on the append path.
///
///   * ScopedThread: a join-on-destruction thread for producer-side
///     stages (the decode-ahead thread of ProfileSession::replayFrom).
///
/// This header (with SpscQueue.h) is the only place in the repository
/// allowed to use std::thread directly; everything else goes through
/// these wrappers so lifecycle (drain, close, join) stays centralized
/// and auditable. Enforced by orp-analyze's raw-thread rule.
///
//===----------------------------------------------------------------------===//

#ifndef ORP_SUPPORT_WORKERPOOL_H
#define ORP_SUPPORT_WORKERPOOL_H

#include "support/SpscQueue.h"

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>
#include <utility>

namespace orp {
namespace support {

/// Point-in-time counters of one QueueWorker: its feed queue plus how
/// much wall time the worker thread has spent inside the handler.
struct WorkerTelemetry {
  QueueTelemetry Queue;   ///< Feed-queue counters.
  uint64_t BusyNanos = 0; ///< Wall time spent running the handler.
};

/// One worker thread fed by a bounded SPSC queue of work items.
///
/// The handler runs on the worker thread only, over items in exactly
/// the order they were submit()ted. Whatever state the handler touches
/// must be owned by this worker (or be immutable) until finish()
/// returns — that ownership rule is what keeps the parallel pipeline
/// lock-free on the append path and byte-identical to the serial one.
template <typename Item> class QueueWorker {
public:
  using Handler = std::function<void(Item &)>;

  /// Spawns the worker. \p QueueCapacity bounds the number of buffered
  /// items (backpressure); \p Work processes one item.
  QueueWorker(size_t QueueCapacity, Handler Work)
      : Queue(QueueCapacity), Work(std::move(Work)),
        Thread([this] { run(); }) {}

  QueueWorker(const QueueWorker &) = delete;
  QueueWorker &operator=(const QueueWorker &) = delete;

  ~QueueWorker() { finish(); }

  /// Hands \p I to the worker; blocks while the queue is full. Returns
  /// false — dropping \p I — when called after finish() (push on a
  /// closed queue). Before the [[nodiscard]] audit this dropped the
  /// item *silently*; callers for whom a submit can never legitimately
  /// fail treat false as a fatal logic error.
  [[nodiscard]] bool submit(Item &&I) { return Queue.push(std::move(I)); }

  /// Closes the queue, waits for every submitted item to be processed
  /// and joins the thread. Idempotent; after finish() the state the
  /// handler mutated is safely visible to the caller.
  void finish() {
    Queue.close();
    if (Thread.joinable())
      Thread.join();
  }

  /// Returns the worker's counters. Callable from any thread; BusyNanos
  /// is read with relaxed ordering, so a mid-run read may lag the
  /// handler currently executing (exact after finish()).
  WorkerTelemetry telemetry() const {
    WorkerTelemetry T;
    T.Queue = Queue.telemetry();
    T.BusyNanos = BusyNs.load(std::memory_order_relaxed);
    return T;
  }

private:
  void run() {
    using Clock = std::chrono::steady_clock;
    Item I;
    while (Queue.pop(I)) {
      Clock::time_point Start = Clock::now();
      Work(I);
      BusyNs.fetch_add(static_cast<uint64_t>(
                           std::chrono::duration_cast<std::chrono::nanoseconds>(
                               Clock::now() - Start)
                               .count()),
                       std::memory_order_relaxed);
    }
  }

  SpscQueue<Item> Queue;
  Handler Work;
  std::atomic<uint64_t> BusyNs{0};
  std::thread Thread;
};

/// A thread that joins on destruction (for producer-side stages).
class ScopedThread {
public:
  explicit ScopedThread(std::function<void()> Fn) : Thread(std::move(Fn)) {}

  ScopedThread(const ScopedThread &) = delete;
  ScopedThread &operator=(const ScopedThread &) = delete;

  ~ScopedThread() { join(); }

  /// Waits for the thread to finish. Idempotent.
  void join() {
    if (Thread.joinable())
      Thread.join();
  }

private:
  std::thread Thread;
};

} // namespace support
} // namespace orp

#endif // ORP_SUPPORT_WORKERPOOL_H
