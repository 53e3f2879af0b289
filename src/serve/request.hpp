#pragma once

/// \file request.hpp
/// Wire and engine types of the streaming serving layer
/// (`adapt::serve`).
///
/// A ServeRequest is one reconstructed Compton ring awaiting NN
/// evaluation — background classification plus a dEta prediction —
/// tagged with the polar-angle guess current when it was enqueued, a
/// monotone sequence number for result matching, and its enqueue
/// timestamp so end-to-end latency (queue wait + batching delay +
/// inference) can be quoted per event, not per batch.

#include <chrono>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "recon/ring.hpp"

namespace adapt::serve {

struct ServeRequest {
  recon::ComptonRing ring;
  double polar_deg_guess = 0.0;  ///< Localization estimate at submit time.
  std::uint64_t sequence = 0;    ///< Assigned by StreamRouter::submit.
  std::uint32_t stream_id = 0;   ///< Logical event stream (telescope /
                                 ///< replayed burst); the router keys
                                 ///< shard placement, fairness, and
                                 ///< per-stream localization on it.
  std::chrono::steady_clock::time_point enqueued_at{};
};

struct ServeResult {
  std::uint64_t sequence = 0;
  std::uint32_t stream_id = 0;     ///< Copied from the request, so a
                                   ///< shared sink can demultiplex a
                                   ///< mixed multi-stream batch.
  std::uint8_t is_background = 0;  ///< Background net decision (1 = drop).
  double d_eta = 0.0;              ///< NN prediction, or the analytic
                                   ///< propagated value when degraded.
  bool degraded = false;           ///< True when overload policy skipped
                                   ///< the dEta network for this event.
  bool fallback = false;           ///< True when the router's recovery
                                   ///< path produced this result (analytic
                                   ///< d_eta, no NN veto) because a model
                                   ///< was quarantined or inference failed.
                                   ///< Fallback results are ALWAYS flagged,
                                   ///< never silently substituted.
  double latency_ms = 0.0;         ///< Enqueue -> result, wall clock.
};

/// Consumes each finished micro-batch on a worker thread.  Keep it
/// cheap — inference stalls while the sink runs.
using ResultSink = std::function<void(std::span<const ServeResult>)>;

/// What one batch forward produced.  `degraded`/`fallback` apply to
/// the whole batch (the worker stamps them onto each result).
struct BatchOutputs {
  std::vector<std::uint8_t> is_background;  ///< One entry per ring.
  std::vector<double> d_eta;                ///< One entry per ring.
  bool degraded = false;  ///< Overload policy skipped the dEta net.
  bool fallback = false;  ///< The recovery path served this batch.
};

/// Computes the model outputs for one batch on a worker thread.  When
/// installed (StreamRouter::set_engine), it replaces the built-in
/// direct Models calls.  `degrade_requested` is the router's own
/// overload signal for this batch.  Must return one is_background and
/// one d_eta per input ring; an engine that throws is retried, and a
/// batch that still fails is served by the router's analytic path
/// (results flagged `fallback`).
using InferenceEngine = std::function<BatchOutputs(
    std::span<const recon::ComptonRing>, std::span<const double>,
    bool degrade_requested)>;

}  // namespace adapt::serve
