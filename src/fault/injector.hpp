#pragma once

/// \file injector.hpp
/// Deterministic, seeded fault injection for the serve pipeline.
///
/// Flight hardware fails in enumerable ways — radiation flips weight
/// bits, uplinks truncate model files, a forward wedges, events vanish
/// or duplicate in a queue handoff — and the recovery policies of
/// serve::StreamRouter must be tested against *exactly* those faults,
/// reproducibly.  The Injector turns a single seed into a
/// deterministic fault stream across every class:
///
///   kRingField         NaN / inf / negative energies, out-of-range
///                      cosines, NaN axis components on a ComptonRing
///   kQueueDrop         an event vanishes at the queue handoff
///   kQueueDuplicate    an event is enqueued twice
///   kForwardTransient  a forward attempt throws; retry succeeds
///   kForwardPersistent forward attempts throw until retries exhaust
///   kForwardStall      a forward sleeps long enough for the router's
///                      watchdog to count a stall
///   kWeightBit         an SEU bit flip in live weight memory
///   kModelBytes        serialized model bytes truncated or garbled
///
/// Accounting contract: every injected fault is counted at the moment
/// it is *committed* (a ring corrupted, a hook armed, a bit flipped),
/// always on the driver thread, so the Ledger is bit-identical for
/// identical seeds regardless of worker scheduling.  The driver
/// (fault::run_matrix, one Injector per fault cell) credits each class
/// back as `detected` (the pipeline observed and handled it) or
/// `tolerated` (recovered invisibly, e.g. a transient absorbed by
/// retry); `Ledger::balanced()` is the invariant
///   injected == detected + tolerated   (per class)
/// that every matrix cell and `adaptctl campaign` enforce.
///
/// Thread model: decision/corruption/arming methods run on the
/// driver (producer) thread only.  `on_forward_attempt` is the one
/// member invoked from the router worker thread (via the router's
/// ForwardHook); it touches only the atomic armed counters.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "core/rng.hpp"
#include "quant/quantized_mlp.hpp"
#include "recon/ring.hpp"
#include "serve/stream_router.hpp"

namespace adapt::fault {

enum class FaultClass : std::size_t {
  kRingField = 0,
  kQueueDrop,
  kQueueDuplicate,
  kForwardTransient,
  kForwardPersistent,
  kForwardStall,
  kWeightBit,
  kModelBytes,
};
inline constexpr std::size_t kFaultClassCount = 8;

const char* to_string(FaultClass c);

/// Thrown by an armed forward hook to simulate a failed inference
/// attempt (the router's retry path catches it).
class InjectedFault : public std::runtime_error {
 public:
  explicit InjectedFault(const std::string& what_arg)
      : std::runtime_error(what_arg) {}
};

/// Per-class fault accounting.  All counts are committed on the
/// driver thread; two runs with the same seed and spec produce
/// equal Ledgers bit-for-bit.
struct Ledger {
  std::array<std::uint64_t, kFaultClassCount> injected{};
  std::array<std::uint64_t, kFaultClassCount> detected{};
  std::array<std::uint64_t, kFaultClassCount> tolerated{};

  std::uint64_t total_injected() const;
  std::uint64_t total_detected() const;
  std::uint64_t total_tolerated() const;
  /// Injected faults not yet credited back (0 when balanced).
  std::uint64_t unaccounted() const;
  /// injected == detected + tolerated for every class.
  bool balanced() const;

  /// Deterministic fixed-order text table (one line per class plus a
  /// total line) — the artifact every fault cell report of
  /// `adaptctl campaign` ends with, compared byte-for-byte across two
  /// seeded runs.
  std::string format() const;

  bool operator==(const Ledger&) const = default;
};

class Injector {
 public:
  explicit Injector(std::uint64_t seed);

  // --- event-stream faults (driver thread) ---

  /// With probability `rate`, corrupt one field of `ring` (the kind is
  /// drawn uniformly from the ring-field corruption menu) and count
  /// one kRingField injection.  Returns true when corrupted.  Every
  /// corruption kind violates serve::ring_admissible, so ingress
  /// validation must reject the ring.
  bool maybe_corrupt_ring(recon::ComptonRing& ring, double rate);

  /// Queue-slot fault decision for one submit (counts the injection).
  serve::QueueFault next_queue_fault(double drop_rate,
                                     double duplicate_rate);

  // --- forward-path faults ---

  /// Arm the next `attempts` forward attempts to throw InjectedFault.
  /// Counted as one kForwardTransient injection (the caller sizes
  /// `attempts` below the retry budget so the batch recovers).
  void arm_transient(std::size_t attempts);

  /// Same mechanism, counted as one kForwardPersistent injection (the
  /// caller sizes `attempts` past the retry budget so the batch fails
  /// over to the analytic path).
  void arm_persistent(std::size_t attempts);

  /// Arm the next forward attempt to sleep for `duration` — long
  /// enough, by the caller's choice, to trip the router's watchdog.
  /// Counted as one kForwardStall injection.
  void arm_stall(std::chrono::milliseconds duration);

  /// The router's ForwardHook body: called once per forward attempt
  /// on the *worker* thread.  Consumes an armed stall (sleeps), then
  /// an armed failure (throws InjectedFault).  Touches only atomics.
  void on_forward_attempt(std::size_t batch_size);

  // --- state corruption (driver thread, under
  //     StreamRouter::with_models_quiesced) ---

  /// Coordinates of one SEU so the driver can flip the same bit
  /// back to restore the pristine weights.
  struct BitFlip {
    std::size_t layer = 0;
    std::size_t byte_index = 0;
    unsigned bit = 0;
  };

  /// Flip one seeded bit of one INT8 weight (counts kWeightBit).
  BitFlip flip_int8_weight_bit(quant::QuantizedMlp& model);

  /// Undo a flip (XOR is an involution).  Not an injection; no count.
  static void flip_back(quant::QuantizedMlp& model, const BitFlip& flip);

  /// Scribble one seeded FP32 parameter scalar of the stack (counts
  /// kWeightBit — an SEU in float weight memory).  The caller restores
  /// from a snapshot taken beforehand.
  void corrupt_fp32_weight(nn::Sequential& model);

  // --- serialized-model faults (driver thread) ---

  /// Garble serialized model bytes: truncate, flip a bit, zero a span,
  /// or corrupt the checksum footer (mode drawn from the seed; counts
  /// kModelBytes).  Guaranteed to differ from the input, so a
  /// checksummed loader must reject the result.
  std::string garble_bytes(std::string bytes);

  // --- accounting (driver thread) ---

  void count_detected(FaultClass c, std::uint64_t n = 1);
  void count_tolerated(FaultClass c, std::uint64_t n = 1);
  const Ledger& ledger() const { return ledger_; }

 private:
  void count_injected(FaultClass c);

  core::Rng rng_;
  Ledger ledger_;

  // Armed forward faults; the only state the worker thread touches.
  std::atomic<std::uint64_t> armed_failures_{0};
  std::atomic<std::int64_t> armed_stall_ms_{0};
};

}  // namespace adapt::fault
