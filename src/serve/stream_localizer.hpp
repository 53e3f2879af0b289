#pragma once

/// \file stream_localizer.hpp
/// Streaming localization riding the serve layer: the StreamRouter
/// (`RouterConfig::localize`) gives every stream one of these and
/// feeds it that stream's slice of each served micro-batch; it folds
/// the rings into a loc::IncrementalLocalizer and fires an early alert
/// the first time the credible radius shrinks below a configured
/// threshold — "alert while the burst is still bright" instead of
/// localize-at-end.
///
/// Per observed batch, on the router's worker thread:
///   - results flagged `is_background` are skipped (unless
///     `feed_background`); the NN veto is exactly the filter the batch
///     localizer applies offline,
///   - each surviving request's ring is folded into the accumulator
///     with its *served* d_eta (the NN-refined width when available,
///     analytic otherwise) so the sky weight reflects what was
///     actually served,
///   - every `check_every` accepted rings (and at least `min_rings`
///     total), the 68% (configurable) credible radius is evaluated,
///     recorded into the `loc.incremental.radius_deg` histogram as the
///     containment trajectory, and compared against
///     `alert_radius_deg`; the first crossing invokes the callback
///     exactly once (counted in `loc.incremental.alerts`).
///
/// The callback runs outside the internal mutex (on the worker
/// thread), so it may query this StreamLocalizer, but it stalls
/// inference while it runs — keep it cheap.
///
/// Thread-safety: observe() runs on the router worker; status() and
/// the query helpers are safe from any thread.  The
/// fire-the-callback-outside-the-lock rule is not a comment: observe()
/// and every query helper are ADAPT_EXCLUDES(mutex_), the guarded fold
/// lives in fold_batch_locked() ADAPT_REQUIRES(mutex_), and the Clang
/// thread-safety gate rejects any edit that moves the `on_alert_`
/// invocation back under the lock (the callback legitimately re-enters
/// the query helpers, which would self-deadlock on the non-recursive
/// mutex).

#include <cstdint>
#include <functional>
#include <span>

#include "core/sync.hpp"
#include "core/vec3.hpp"
#include "loc/incremental.hpp"
#include "serve/request.hpp"

namespace adapt::serve {

struct StreamLocalizerConfig {
  loc::IncrementalConfig localizer;
  /// Fire the alert when the credible radius first drops to or below
  /// this [deg]; 0 disables alerting (trajectory still recorded).
  double alert_radius_deg = 0.0;
  /// Probability content of the alert radius (0.68 = the 68%
  /// containment the paper quotes).
  double alert_content = 0.68;
  /// Radius-check cadence in accepted rings (checks cost a posterior
  /// normalization; updates stay cheap between them).
  std::size_t check_every = 64;
  /// Minimum accepted rings before the first radius check.
  std::size_t min_rings = 8;
  /// Also feed rings the router classified as background.
  bool feed_background = false;
  /// Override each ring's cone width with the served d_eta (the
  /// NN-refined width) before folding it into the accumulator.  Turn
  /// off to localize with the rings' own analytic widths — e.g. the
  /// synthetic-model benches, where served widths are seeded noise.
  bool use_served_d_eta = true;
};

struct AlertInfo {
  std::uint64_t n_rings = 0;      ///< Accepted rings at the crossing.
  double radius_deg = 0.0;        ///< Radius that crossed the threshold.
  double content = 0.0;           ///< Probability content of the radius.
  core::Vec3 direction;           ///< Posterior peak at the crossing.
};

using AlertCallback = std::function<void(const AlertInfo&)>;

class StreamLocalizer {
 public:
  explicit StreamLocalizer(StreamLocalizerConfig config,
                           AlertCallback on_alert = {});

  /// Fold one served batch (results[i] answers requests[i]).
  /// EXCLUDES(mutex_): the fold runs under the lock, but the alert
  /// callback fires strictly after it is released, so observe() must
  /// never be entered holding it.
  void observe(std::span<const ServeRequest> requests,
               std::span<const ServeResult> results) ADAPT_EXCLUDES(mutex_);

  struct Status {
    std::uint64_t rings_accepted = 0;
    std::uint64_t rings_skipped_background = 0;
    std::uint64_t rings_rejected = 0;  ///< Unusable for the likelihood.
    std::uint64_t radius_checks = 0;
    double last_radius_deg = 0.0;  ///< 0 until the first check.
    bool alert_fired = false;
    std::uint64_t alert_rings = 0;
    double alert_radius_deg = 0.0;
  };
  Status status() const ADAPT_EXCLUDES(mutex_);

  /// On-demand posterior queries (any thread).
  double credible_radius_deg(double content) ADAPT_EXCLUDES(mutex_);
  core::Vec3 peak() ADAPT_EXCLUDES(mutex_);

  const StreamLocalizerConfig& config() const { return config_; }

 private:
  /// Folds one batch into the accumulator and runs any due radius
  /// check.  Returns true iff this batch crossed the alert threshold
  /// for the first time, filling `info` — the caller fires the
  /// callback AFTER releasing mutex_.
  bool fold_batch_locked(std::span<const ServeRequest> requests,
                         std::span<const ServeResult> results,
                         AlertInfo& info) ADAPT_REQUIRES(mutex_);

  // Immutable after construction; read without the lock.
  StreamLocalizerConfig config_;
  AlertCallback on_alert_;

  mutable core::Mutex mutex_;
  loc::IncrementalLocalizer localizer_ ADAPT_GUARDED_BY(mutex_);
  Status status_ ADAPT_GUARDED_BY(mutex_);
  std::size_t since_check_ ADAPT_GUARDED_BY(mutex_) = 0;
};

}  // namespace adapt::serve
