//===- support/ThreadSafety.h - Capability annotations ---------*- C++ -*-===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The static thread-safety layer: portable macros over Clang's
/// capability attributes (-Wthread-safety) plus the annotated locking
/// primitives the repository's concurrency surface is built on. Under
/// any other compiler every macro expands to nothing, so the annotations
/// are free documentation; under Clang a lock/ownership violation is a
/// compile error in the CI static-analysis job (DESIGN.md section 16).
///
/// Two kinds of capability cover every contract in the tree:
///
///   * Mutex/MutexLock/CondVar: real mutual exclusion, used by the
///     SpscQueue ring. Members are ORP_GUARDED_BY(M); forgetting the
///     lock fails compilation.
///
///   * ThreadRole/ScopedRole: a zero-cost "role" capability for the
///     single-thread disciplines that have no lock at all — the session
///     engine's control thread (SessionManager/Daemon) and its shard
///     workers. A function annotated ORP_REQUIRES(Role) can only be
///     called from code that holds a ScopedRole, which makes the
///     "every public method is called from ONE control thread" comments
///     machine-checked instead of aspirational. Acquiring a role is a
///     claim, not a proof — the discipline is that exactly one thread
///     per subsystem instance claims it (the daemon's poll loop, a
///     test's main thread, a shard's worker lambda).
///
/// This header lives in src/support with SpscQueue.h/WorkerPool.h, the
/// only files allowed to touch std::mutex directly (orp-analyze rule
/// raw-thread).
///
//===----------------------------------------------------------------------===//

#ifndef ORP_SUPPORT_THREADSAFETY_H
#define ORP_SUPPORT_THREADSAFETY_H

#include <condition_variable>
#include <mutex>

// The attribute spellings below follow the Clang thread-safety analysis
// documentation (capability/scoped_lockable et al.). GCC accepts none
// of them, so everything funnels through one feature-gated macro.
#if defined(__clang__)
#define ORP_TS_ATTRIBUTE(x) __attribute__((x))
#else
#define ORP_TS_ATTRIBUTE(x) // no-op outside Clang
#endif

#define ORP_CAPABILITY(x) ORP_TS_ATTRIBUTE(capability(x))
#define ORP_SCOPED_CAPABILITY ORP_TS_ATTRIBUTE(scoped_lockable)
#define ORP_GUARDED_BY(x) ORP_TS_ATTRIBUTE(guarded_by(x))
#define ORP_PT_GUARDED_BY(x) ORP_TS_ATTRIBUTE(pt_guarded_by(x))
#define ORP_ACQUIRED_BEFORE(...) ORP_TS_ATTRIBUTE(acquired_before(__VA_ARGS__))
#define ORP_ACQUIRED_AFTER(...) ORP_TS_ATTRIBUTE(acquired_after(__VA_ARGS__))
#define ORP_REQUIRES(...) ORP_TS_ATTRIBUTE(requires_capability(__VA_ARGS__))
#define ORP_REQUIRES_SHARED(...)                                            \
  ORP_TS_ATTRIBUTE(requires_shared_capability(__VA_ARGS__))
#define ORP_ACQUIRE(...) ORP_TS_ATTRIBUTE(acquire_capability(__VA_ARGS__))
#define ORP_ACQUIRE_SHARED(...)                                             \
  ORP_TS_ATTRIBUTE(acquire_shared_capability(__VA_ARGS__))
#define ORP_RELEASE(...) ORP_TS_ATTRIBUTE(release_capability(__VA_ARGS__))
#define ORP_RELEASE_SHARED(...)                                             \
  ORP_TS_ATTRIBUTE(release_shared_capability(__VA_ARGS__))
#define ORP_TRY_ACQUIRE(...)                                                \
  ORP_TS_ATTRIBUTE(try_acquire_capability(__VA_ARGS__))
#define ORP_EXCLUDES(...) ORP_TS_ATTRIBUTE(locks_excluded(__VA_ARGS__))
#define ORP_ASSERT_CAPABILITY(x) ORP_TS_ATTRIBUTE(assert_capability(x))
#define ORP_RETURN_CAPABILITY(x) ORP_TS_ATTRIBUTE(lock_returned(x))
#define ORP_NO_THREAD_SAFETY_ANALYSIS                                       \
  ORP_TS_ATTRIBUTE(no_thread_safety_analysis)

namespace orp {
namespace support {

/// An annotated std::mutex. The analysis needs the capability attribute
/// on the lock type itself, which the standard library type cannot
/// carry — so the concurrency surface locks through this wrapper (and
/// almost always through MutexLock, never bare lock()/unlock()).
///
/// The lock/unlock bodies forward to an unannotated std::mutex, so the
/// analysis is disabled inside them; the declaration attributes are
/// what callers are checked against.
class ORP_CAPABILITY("mutex") Mutex {
public:
  Mutex() = default;
  Mutex(const Mutex &) = delete;
  Mutex &operator=(const Mutex &) = delete;

  void lock() ORP_ACQUIRE() ORP_NO_THREAD_SAFETY_ANALYSIS { M.lock(); }
  void unlock() ORP_RELEASE() ORP_NO_THREAD_SAFETY_ANALYSIS { M.unlock(); }

private:
  friend class MutexLock;
  std::mutex M;
};

/// RAII lock over a Mutex, with early unlock() for the
/// unlock-before-notify pattern. Wraps std::unique_lock so CondVar can
/// wait on it; the scoped-capability annotation lets Clang track the
/// held/released state across the early unlock.
class ORP_SCOPED_CAPABILITY MutexLock {
public:
  explicit MutexLock(Mutex &M) ORP_ACQUIRE(M) ORP_NO_THREAD_SAFETY_ANALYSIS
      : Lock(M.M) {}
  ~MutexLock() ORP_RELEASE() ORP_NO_THREAD_SAFETY_ANALYSIS = default;

  MutexLock(const MutexLock &) = delete;
  MutexLock &operator=(const MutexLock &) = delete;

  /// Releases the mutex before the scope ends (the destructor then does
  /// nothing). Use to drop the lock before waking a peer, so the woken
  /// thread never immediately blocks on the mutex we still hold.
  void unlock() ORP_RELEASE() ORP_NO_THREAD_SAFETY_ANALYSIS {
    Lock.unlock();
  }

private:
  friend class CondVar;
  std::unique_lock<std::mutex> Lock;
};

/// Condition variable paired with Mutex/MutexLock. wait() has no
/// predicate overload on purpose: a predicate lambda would be analyzed
/// as a separate unlocked function and spuriously warn on every guarded
/// member it reads — callers write the standard while-loop instead,
/// which the analysis sees in full.
class CondVar {
public:
  CondVar() = default;
  CondVar(const CondVar &) = delete;
  CondVar &operator=(const CondVar &) = delete;

  /// Atomically releases \p Lock and blocks; the mutex is re-held on
  /// return (possibly spuriously — re-test the condition in a loop).
  /// The capability set is unchanged across the call, which is exactly
  /// what the analysis assumes of an unannotated callee.
  void wait(MutexLock &Lock) { CV.wait(Lock.Lock); }

  void notifyOne() noexcept { CV.notify_one(); }
  void notifyAll() noexcept { CV.notify_all(); }

private:
  std::condition_variable CV;
};

/// A zero-cost capability standing for "runs on the subsystem's
/// designated thread". Instances are namespace-scope tokens (e.g.
/// session::SessionControlRole); functions that must only run on that
/// thread are annotated ORP_REQUIRES(Role), and the thread that *is*
/// that role claims it with a ScopedRole at the top of its loop.
class ORP_CAPABILITY("role") ThreadRole {
public:
  constexpr ThreadRole() = default;
  ThreadRole(const ThreadRole &) = delete;
  ThreadRole &operator=(const ThreadRole &) = delete;

  void acquire() ORP_ACQUIRE() ORP_NO_THREAD_SAFETY_ANALYSIS {}
  void release() ORP_RELEASE() ORP_NO_THREAD_SAFETY_ANALYSIS {}
};

/// RAII claim of a ThreadRole for the current scope. Compiles to
/// nothing; exists so Clang can check role-annotated call graphs.
class ORP_SCOPED_CAPABILITY ScopedRole {
public:
  explicit ScopedRole(ThreadRole &R) ORP_ACQUIRE(R)
      ORP_NO_THREAD_SAFETY_ANALYSIS {
    (void)R;
  }
  ~ScopedRole() ORP_RELEASE() ORP_NO_THREAD_SAFETY_ANALYSIS = default;

  ScopedRole(const ScopedRole &) = delete;
  ScopedRole &operator=(const ScopedRole &) = delete;
};

} // namespace support
} // namespace orp

#endif // ORP_SUPPORT_THREADSAFETY_H
