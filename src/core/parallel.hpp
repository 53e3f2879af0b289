#pragma once

/// \file parallel.hpp
/// The hot-path compute layer's threading primitives.
///
/// Everything performance-critical in adaptml (GEMM kernels, INT8
/// inference, event reconstruction, the evaluation trial harness)
/// funnels its parallelism through parallel_for instead of raw OpenMP
/// pragmas, so that
///   - results are deterministic and independent of the schedule
///     (work is indexed; each index writes only its own outputs),
///   - thread-count and tile-size knobs live in one place
///     (`OMP_NUM_THREADS` / `ADAPT_NUM_THREADS`,
///     `ADAPT_GEMM_TILE_COLS`), and
///   - the backend is swappable: OpenMP when compiled in, a portable
///     std::thread fork/join otherwise (or when ADAPT_PARALLEL_FORCE_STD
///     is defined — the TSan build does this, because libgomp's
///     futex-based barriers are invisible to ThreadSanitizer and would
///     drown real findings in false positives;
///     std::thread/std::mutex/std::atomic are fully instrumented).
///
/// Memory-ordering contract
/// ------------------------
/// Callers hand parallel_for a set of *disjoint* index-addressed work
/// items; no iteration may touch another iteration's state.  Under
/// that contract the only synchronization these helpers owe callers is
/// fork/join ordering:
///
///   - Everything the caller wrote before the call happens-before
///     every `fn(i)` (thread creation / OpenMP region entry), and
///   - every `fn(i)` happens-before the return (thread join / OpenMP
///     barrier).
///
/// Both backends get this for free from their primitives, so worker
/// bookkeeping can be intentionally weak: the std backend's chunk
/// cursor is fetch_add(relaxed) — it only partitions indices, never
/// publishes data; the join provides the release/acquire edge for the
/// results themselves.
///
/// Exceptions: a throw from `fn` (e.g. an ADAPT_CHECKED contract
/// firing inside a worker) is captured, the region drains, and the
/// first-thrown exception is rethrown on the calling thread — OpenMP
/// would otherwise std::terminate, and std::thread would call
/// std::terminate at destructor time.

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <exception>
#include <thread>
#include <algorithm>
#include <vector>

#include "core/sync.hpp"

#if defined(_OPENMP) && !defined(ADAPT_PARALLEL_FORCE_STD)
#define ADAPT_PARALLEL_BACKEND_OMP 1
#include <omp.h>
#else
#define ADAPT_PARALLEL_BACKEND_OMP 0
#endif

namespace adapt::core {

namespace detail {

/// Set while the calling thread must run parallel_for serially: a
/// std-backend worker (or the caller participating as one) inside a
/// region, or a thread inside a SerialScope.  Read by both backends.
inline bool& serial_context() {
  thread_local bool flag = false;
  return flag;
}

/// Thread budget for the std backend: ADAPT_NUM_THREADS, then
/// OMP_NUM_THREADS (so existing run scripts keep working), then
/// hardware_concurrency.  Parsed once; malformed values fall back.
inline int std_backend_max_threads() {
  static const int cached = [] {
    for (const char* name : {"ADAPT_NUM_THREADS", "OMP_NUM_THREADS"}) {
      const char* v = std::getenv(name);
      if (v == nullptr || *v == '\0') continue;
      char* end = nullptr;
      const long parsed = std::strtol(v, &end, 10);
      if (end != v && *end == '\0' && parsed > 0 && parsed < 1024)
        return static_cast<int>(parsed);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
  }();
  return cached;
}

/// First-exception capture shared by both backends: workers that catch
/// store the first exception_ptr and raise the (relaxed) stop flag so
/// remaining chunks are skipped; the caller rethrows after the join.
/// The mutex orders the exception_ptr write against the post-join read
/// (the join already provides the happens-before edge, but taking the
/// lock in rethrow_if_set keeps the guarded_by contract checkable —
/// it runs once per region, after the join, so the cost is nil).
struct ErrorSlot {
  Mutex mutex;
  std::exception_ptr first ADAPT_GUARDED_BY(mutex);
  std::atomic<bool> stop{false};

  void capture() noexcept {
    LockGuard lock(mutex);
    if (!first) first = std::current_exception();
    stop.store(true, std::memory_order_relaxed);
  }
  void rethrow_if_set() {
    std::exception_ptr eptr;
    {
      LockGuard lock(mutex);
      eptr = first;
    }
    if (eptr) std::rethrow_exception(eptr);
  }
};

}  // namespace detail

/// Number of worker threads a parallel region may use (OpenMP's
/// max-threads setting under the OpenMP backend, else the env-derived
/// std::thread budget; always >= 1).
inline int max_threads() {
#if ADAPT_PARALLEL_BACKEND_OMP
  return omp_get_max_threads();
#else
  return detail::std_backend_max_threads();
#endif
}

/// True when called from inside a parallel region or a SerialScope
/// (used to avoid nesting, which would oversubscribe or deadlock either
/// backend).
inline bool in_parallel_region() {
#if ADAPT_PARALLEL_BACKEND_OMP
  return detail::serial_context() || omp_in_parallel();
#else
  return detail::serial_context();
#endif
}

/// Marks the calling thread as a serial context for the scope's
/// lifetime: every parallel_for it reaches runs inline on it.  A thread
/// that is already one of several concurrent workers (a
/// serve::StreamRouter worker) holds one for its whole life, so its
/// forward never opens a nested thread team per batch.
class SerialScope {
 public:
  SerialScope() : saved_(detail::serial_context()) {
    detail::serial_context() = true;
  }
  ~SerialScope() { detail::serial_context() = saved_; }
  SerialScope(const SerialScope&) = delete;
  SerialScope& operator=(const SerialScope&) = delete;

 private:
  bool saved_;
};

/// Positive-integer environment knob with a fallback, for tile sizes
/// and similar tuning parameters.  Malformed or non-positive values
/// fall back (tuning knobs should never abort a flight run).
inline std::size_t env_tuning_knob(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const long long parsed = std::strtoll(v, &end, 10);
  return (end != v && *end == '\0' && parsed > 0)
             ? static_cast<std::size_t>(parsed)
             : fallback;
}

/// Run `fn(i)` for i in [0, n).  `grain` is the scheduling granularity
/// (dynamic chunks of `grain` iterations — trials and GEMM row blocks
/// have uneven cost).  Serial when threading is unavailable, when
/// already inside a parallel region, or when `n` is too small to
/// amortize the fork.  `fn` must not depend on execution order and
/// must not touch another iteration's state.
template <typename Fn>
void parallel_for(std::size_t n, Fn&& fn, std::size_t grain = 1) {
  if (grain == 0) grain = 1;
  const std::size_t chunks = (n + grain - 1) / grain;

#if ADAPT_PARALLEL_BACKEND_OMP
  if (!in_parallel_region() && max_threads() > 1 && n > grain) {
    detail::ErrorSlot err;
    const auto nc = static_cast<std::ptrdiff_t>(chunks);
#pragma omp parallel for schedule(dynamic, 1)
    for (std::ptrdiff_t chunk = 0; chunk < nc; ++chunk) {
      if (err.stop.load(std::memory_order_relaxed)) continue;
      const std::size_t begin = static_cast<std::size_t>(chunk) * grain;
      const std::size_t end = begin + grain < n ? begin + grain : n;
      try {
        for (std::size_t i = begin; i < end; ++i) fn(i);
      } catch (...) {
        err.capture();
      }
    }
    err.rethrow_if_set();
    return;
  }
#else
  const int budget = max_threads();
  if (!in_parallel_region() && budget > 1 && n > grain) {
    // Fork/join with dynamic chunk self-scheduling: workers (the
    // caller included) pull chunk indices off a relaxed atomic cursor.
    // The cursor only partitions work; the joins below publish the
    // workers' writes to the caller.
    const std::size_t n_workers =
        std::min(static_cast<std::size_t>(budget), chunks);
    std::atomic<std::size_t> next{0};
    detail::ErrorSlot err;
    auto worker = [&]() noexcept {
      const SerialScope serial;
      for (;;) {
        if (err.stop.load(std::memory_order_relaxed)) break;
        const std::size_t chunk = next.fetch_add(1, std::memory_order_relaxed);
        if (chunk >= chunks) break;
        const std::size_t begin = chunk * grain;
        const std::size_t end = begin + grain < n ? begin + grain : n;
        try {
          for (std::size_t i = begin; i < end; ++i) fn(i);
        } catch (...) {
          err.capture();
        }
      }
    };
    std::vector<std::thread> threads;
    threads.reserve(n_workers - 1);
    for (std::size_t t = 0; t + 1 < n_workers; ++t)
      threads.emplace_back(worker);
    worker();  // The calling thread participates.
    for (std::thread& t : threads) t.join();
    err.rethrow_if_set();
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) fn(i);
}

}  // namespace adapt::core
