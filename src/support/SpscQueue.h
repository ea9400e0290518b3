//===- support/SpscQueue.h - Bounded SPSC batch ring -----------*- C++ -*-===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bounded single-producer/single-consumer ring used to hand batches
/// of work between pipeline stages (WhompProfiler's dimension workers,
/// LeapProfiler's substream shards, and the replay decode-ahead buffer
/// of ProfileSession::replayFrom).
///
/// Elements are whole batches (vectors of symbols, tuples or events),
/// so queue operations happen at batch granularity — hundreds per
/// second, not millions — and a mutex-protected ring is both fast
/// enough and trivially ThreadSanitizer-clean. The bounded capacity is
/// the pipeline's backpressure: a producer that outruns its consumer
/// blocks instead of ballooning memory.
///
/// Determinism note: the queue is strictly FIFO. Whatever order the
/// producer pushes is the order the consumer pops, so moving a stage
/// onto a worker thread never reorders the substream it owns.
///
/// Every mutable member is ORP_GUARDED_BY the ring mutex and all entry
/// points are statically checked under Clang's -Wthread-safety (see
/// support/ThreadSafety.h and DESIGN.md section 16). push/tryPush
/// results are [[nodiscard]]: since the closed-ring change (PR 4 fix),
/// a push can legitimately fail, and a caller that drops the bool drops
/// an element silently.
///
/// This header (with WorkerPool.h and ThreadSafety.h) is the only place
/// in the repository allowed to use std::mutex /
/// std::condition_variable directly; see orp-analyze rule raw-thread.
///
//===----------------------------------------------------------------------===//

#ifndef ORP_SUPPORT_SPSCQUEUE_H
#define ORP_SUPPORT_SPSCQUEUE_H

#include "support/ThreadSafety.h"

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace orp {
namespace support {

/// Point-in-time counters of one queue, for the telemetry layer. All
/// values are maintained under the queue mutex, so a read is a
/// consistent cut (not a torn mixture of before/after states).
struct QueueTelemetry {
  size_t Capacity = 0;      ///< Ring size.
  size_t Depth = 0;         ///< Elements buffered right now.
  size_t HighWatermark = 0; ///< Largest Depth ever observed.
  uint64_t Pushes = 0;      ///< Successful push()/tryPush() calls.
  uint64_t Pops = 0;        ///< Successful pop()/tryPop() calls.
  uint64_t PushStalls = 0;  ///< push() calls that blocked on a full ring.
};

/// Bounded FIFO ring between one producer and one consumer thread.
template <typename T> class SpscQueue {
public:
  /// Creates a queue holding at most \p Capacity elements (>= 1).
  explicit SpscQueue(size_t Capacity)
      : Cap(Capacity ? Capacity : 1), Ring(Cap) {}

  SpscQueue(const SpscQueue &) = delete;
  SpscQueue &operator=(const SpscQueue &) = delete;

  /// Enqueues \p Value, blocking while the ring is full. Returns false
  /// — dropping \p Value — if the queue was close()d, whether before
  /// the call or while blocked waiting for room. Never writes into a
  /// closed ring: waking on close with a full ring must not overwrite
  /// unconsumed elements or push Count past capacity.
  [[nodiscard]] bool push(T &&Value) {
    MutexLock Lock(M);
    if (Count == Cap && !Closed)
      ++Telemetry.PushStalls; // Backpressure: producer outran consumer.
    while (Count == Cap && !Closed)
      NotFull.wait(Lock);
    if (Closed)
      return false;
    Ring[(Head + Count) % Cap] = std::move(Value);
    ++Count;
    noteDepthLocked();
    Lock.unlock();
    NotEmpty.notifyOne();
    return true;
  }

  /// Enqueues \p Value if the ring has room; returns false when full
  /// or closed.
  [[nodiscard]] bool tryPush(T &&Value) {
    {
      MutexLock Lock(M);
      if (Closed || Count == Cap)
        return false;
      Ring[(Head + Count) % Cap] = std::move(Value);
      ++Count;
      noteDepthLocked();
    }
    NotEmpty.notifyOne();
    return true;
  }

  /// Dequeues into \p Out, blocking while the ring is empty. Returns
  /// false once the queue is closed and fully drained.
  [[nodiscard]] bool pop(T &Out) {
    MutexLock Lock(M);
    while (Count == 0 && !Closed)
      NotEmpty.wait(Lock);
    if (Count == 0)
      return false; // Closed and drained.
    Out = std::move(Ring[Head]);
    Head = (Head + 1) % Cap;
    --Count;
    ++Telemetry.Pops;
    Lock.unlock();
    NotFull.notifyOne();
    return true;
  }

  /// Dequeues into \p Out if an element is ready; returns false when
  /// the ring is currently empty (closed or not).
  [[nodiscard]] bool tryPop(T &Out) {
    {
      MutexLock Lock(M);
      if (Count == 0)
        return false;
      Out = std::move(Ring[Head]);
      Head = (Head + 1) % Cap;
      --Count;
      ++Telemetry.Pops;
    }
    NotFull.notifyOne();
    return true;
  }

  /// Declares the producer side done: pending elements still drain, and
  /// pop() returns false once they have.
  void close() {
    {
      MutexLock Lock(M);
      Closed = true;
    }
    NotEmpty.notifyAll();
    NotFull.notifyAll();
  }

  /// Maximum number of buffered elements (immutable, lock-free read).
  size_t capacity() const { return Cap; }

  /// Returns a consistent snapshot of the queue counters. Callable from
  /// any thread at any time (takes the queue mutex briefly).
  QueueTelemetry telemetry() const {
    MutexLock Lock(M);
    QueueTelemetry Snap = Telemetry;
    Snap.Capacity = Cap;
    Snap.Depth = Count;
    return Snap;
  }

private:
  /// Records a completed push; call with the mutex held.
  void noteDepthLocked() ORP_REQUIRES(M) {
    ++Telemetry.Pushes;
    if (Count > Telemetry.HighWatermark)
      Telemetry.HighWatermark = Count;
  }

  const size_t Cap; ///< Ring size; fixed at construction.
  mutable Mutex M;
  CondVar NotEmpty;
  CondVar NotFull;
  std::vector<T> Ring ORP_GUARDED_BY(M);
  size_t Head ORP_GUARDED_BY(M) = 0;
  size_t Count ORP_GUARDED_BY(M) = 0;
  bool Closed ORP_GUARDED_BY(M) = false;
  /// Capacity/Depth are filled in by telemetry(); the rest accumulate
  /// here under the mutex.
  QueueTelemetry Telemetry ORP_GUARDED_BY(M);
};

} // namespace support
} // namespace orp

#endif // ORP_SUPPORT_SPSCQUEUE_H
