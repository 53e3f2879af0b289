#pragma once

/// \file sync.hpp
/// The repo's only locking layer: std::mutex-family primitives wrapped
/// in capability types that carry Clang Thread Safety Analysis (TSA)
/// attributes.  On Clang the `thread-safety` gate stage
/// (tools/check_static_analysis.sh) compiles src/ with
/// `-Werror=thread-safety -Werror=thread-safety-beta`, turning lock
/// discipline — which fields a mutex guards, which methods require it,
/// which must never be entered holding it — into a compile-time
/// invariant instead of a convention TSan may or may not catch at
/// runtime.  On GCC (and any compiler without the attributes) every
/// annotation expands to nothing and the wrappers are zero-cost
/// pass-throughs over the std primitives.
///
/// Raw std::mutex / std::shared_mutex / std::condition_variable /
/// std::lock_guard / std::unique_lock are banned outside this file
/// (adapt_lint rule 7, `no-naked-mutex`): locking the analysis cannot
/// see is locking that cannot be checked.
///
/// Usage sketch:
///
///   class Queue {
///     core::Mutex mutex_;
///     core::CondVar nonempty_;
///     std::size_t size_ ADAPT_GUARDED_BY(mutex_) = 0;
///
///     std::size_t depth() const {
///       core::LockGuard lock(mutex_);
///       return size_;                       // OK: capability held.
///     }
///     void drain() ADAPT_EXCLUDES(mutex_);  // Must NOT hold mutex_.
///     void compact_locked() ADAPT_REQUIRES(mutex_);  // Caller holds it.
///   };
///
/// Repo-wide lock-ordering rule (DESIGN.md "Lock ordering"): when two
/// of these locks must nest, acquire them outermost first — router ->
/// shard — and NEVER invoke a user-supplied callback (sink, batch
/// observer, alert callback, fault hook) while holding any of them.  The telemetry registry
/// mutex is a leaf: it guards only metric registration/snapshot and is
/// likewise never held across a callback.
///
/// Condition-variable waits and the analysis: TSA is scope-based, so a
/// `CondVar::wait(lock)` — which releases and reacquires the mutex
/// internally — leaves the static capability set unchanged.  That is
/// the standard TSA treatment of condvars; write wait loops explicitly
/// (`while (!ready_) cv_.wait(lock);`) so the guarded-field reads in
/// the loop condition sit visibly inside the locked scope.

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

// ---------------------------------------------------------------------
// TSA attribute macros.  Clang-only; no-ops elsewhere.  The names
// mirror the upstream capability vocabulary with an ADAPT_ prefix so
// call sites read as contract, not compiler incantation.
// ---------------------------------------------------------------------

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define ADAPT_TSA(x) __attribute__((x))
#endif
#endif
#ifndef ADAPT_TSA
#define ADAPT_TSA(x)  // Not Clang: annotations compile away.
#endif

/// Marks a type as a lockable capability (shown as `kind` in
/// diagnostics, e.g. "mutex").
#define ADAPT_CAPABILITY(kind) ADAPT_TSA(capability(kind))

/// Marks an RAII type whose lifetime acquires/releases a capability.
#define ADAPT_SCOPED_CAPABILITY ADAPT_TSA(scoped_lockable)

/// Data member readable/writable only while `mu` is held.
#define ADAPT_GUARDED_BY(mu) ADAPT_TSA(guarded_by(mu))

/// Pointer member whose *pointee* is guarded by `mu`.
#define ADAPT_PT_GUARDED_BY(mu) ADAPT_TSA(pt_guarded_by(mu))

/// Function that may only be called while holding the capabilities.
#define ADAPT_REQUIRES(...) ADAPT_TSA(requires_capability(__VA_ARGS__))
#define ADAPT_REQUIRES_SHARED(...) \
  ADAPT_TSA(requires_shared_capability(__VA_ARGS__))

/// Function that acquires the capabilities (not held on entry, held on
/// exit) / releases them (held on entry, not on exit).
#define ADAPT_ACQUIRE(...) ADAPT_TSA(acquire_capability(__VA_ARGS__))
#define ADAPT_ACQUIRE_SHARED(...) ADAPT_TSA(acquire_shared_capability(__VA_ARGS__))
#define ADAPT_RELEASE(...) ADAPT_TSA(release_capability(__VA_ARGS__))
#define ADAPT_RELEASE_SHARED(...) ADAPT_TSA(release_shared_capability(__VA_ARGS__))

/// Function that attempts the acquisition; `result` is the return
/// value meaning success.
#define ADAPT_TRY_ACQUIRE(...) ADAPT_TSA(try_acquire_capability(__VA_ARGS__))
#define ADAPT_TRY_ACQUIRE_SHARED(...) \
  ADAPT_TSA(try_acquire_shared_capability(__VA_ARGS__))

/// Function that must NOT be called while holding the capabilities —
/// the annotated form of "fire the callback outside the lock".
#define ADAPT_EXCLUDES(...) ADAPT_TSA(locks_excluded(__VA_ARGS__))

/// Function returning a reference to the capability guarding its
/// result (lets accessors participate in the analysis).
#define ADAPT_RETURN_CAPABILITY(mu) ADAPT_TSA(lock_returned(mu))

/// Escape hatches: assert a capability the analysis cannot see is
/// held, or switch the analysis off for one function (use only with a
/// comment explaining why the analysis cannot follow).
#define ADAPT_ASSERT_CAPABILITY(mu) ADAPT_TSA(assert_capability(mu))
#define ADAPT_NO_THREAD_SAFETY_ANALYSIS ADAPT_TSA(no_thread_safety_analysis)

namespace adapt::core {

class CondVar;

/// Exclusive mutex capability.  Same semantics and cost as the
/// std::mutex it wraps; the wrapper exists so acquisitions are visible
/// to the analysis.  Prefer the RAII `LockGuard`/`UniqueLock` over
/// manual lock()/unlock() pairs.
class ADAPT_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ADAPT_ACQUIRE() { raw_.lock(); }
  void unlock() ADAPT_RELEASE() { raw_.unlock(); }
  bool try_lock() ADAPT_TRY_ACQUIRE(true) { return raw_.try_lock(); }

 private:
  friend class CondVar;
  friend class UniqueLock;
  std::mutex raw_;
};

/// Reader/writer mutex capability over std::shared_mutex: any number
/// of shared holders or one exclusive holder.
class ADAPT_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() ADAPT_ACQUIRE() { raw_.lock(); }
  void unlock() ADAPT_RELEASE() { raw_.unlock(); }
  bool try_lock() ADAPT_TRY_ACQUIRE(true) { return raw_.try_lock(); }

  void lock_shared() ADAPT_ACQUIRE_SHARED() { raw_.lock_shared(); }
  void unlock_shared() ADAPT_RELEASE_SHARED() { raw_.unlock_shared(); }
  bool try_lock_shared() ADAPT_TRY_ACQUIRE_SHARED(true) {
    return raw_.try_lock_shared();
  }

 private:
  std::shared_mutex raw_;
};

/// RAII exclusive lock over a Mutex — the default way to hold one for
/// a full scope.
class ADAPT_SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(Mutex& mutex) ADAPT_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~LockGuard() ADAPT_RELEASE() { mutex_.unlock(); }

  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  Mutex& mutex_;
};

/// RAII exclusive lock over a SharedMutex (the writer side).
class ADAPT_SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mutex) ADAPT_ACQUIRE(mutex)
      : mutex_(mutex) {
    mutex_.lock();
  }
  ~WriterLock() ADAPT_RELEASE() { mutex_.unlock(); }

  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex& mutex_;
};

/// RAII shared (reader) lock over a SharedMutex.
class ADAPT_SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mutex) ADAPT_ACQUIRE_SHARED(mutex)
      : mutex_(mutex) {
    mutex_.lock_shared();
  }
  ~ReaderLock() ADAPT_RELEASE_SHARED() { mutex_.unlock_shared(); }

  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex& mutex_;
};

/// RAII lock that can be dropped and retaken mid-scope (retry backoff
/// windows, condvar waits).  Constructed locked; track lock()/unlock()
/// pairs yourself — the destructor releases iff currently held, and on
/// Clang the analysis checks the pairing statically.
class ADAPT_SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(Mutex& mutex) ADAPT_ACQUIRE(mutex)
      : lock_(mutex.raw_) {}
  ~UniqueLock() ADAPT_RELEASE() {}  // lock_'s destructor releases if held.

  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  void lock() ADAPT_ACQUIRE() { lock_.lock(); }
  void unlock() ADAPT_RELEASE() { lock_.unlock(); }
  bool owns_lock() const { return lock_.owns_lock(); }

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

/// Condition variable paired with Mutex/UniqueLock.  wait() atomically
/// releases the lock's mutex and reacquires it before returning; the
/// static capability set is unchanged across the call (the standard
/// TSA condvar treatment), so guarded state read in the wait loop's
/// condition type-checks.  Always wait in a loop — spurious wakeups.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() noexcept { raw_.notify_one(); }
  void notify_all() noexcept { raw_.notify_all(); }

  /// `lock` must currently own its mutex.
  void wait(UniqueLock& lock) { raw_.wait(lock.lock_); }

  template <typename Clock, typename Duration>
  std::cv_status wait_until(
      UniqueLock& lock, const std::chrono::time_point<Clock, Duration>& tp) {
    return raw_.wait_until(lock.lock_, tp);
  }

  template <typename Rep, typename Period>
  std::cv_status wait_for(UniqueLock& lock,
                          const std::chrono::duration<Rep, Period>& d) {
    return raw_.wait_for(lock.lock_, d);
  }

 private:
  std::condition_variable raw_;
};

}  // namespace adapt::core
