#include "fault/injector.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <thread>

#include "core/contract.hpp"
#include "core/telemetry.hpp"
#include "nn/sequential.hpp"

namespace adapt::fault {

namespace tm = core::telemetry;

const char* to_string(FaultClass c) {
  switch (c) {
    case FaultClass::kRingField:
      return "ring_field";
    case FaultClass::kQueueDrop:
      return "queue_drop";
    case FaultClass::kQueueDuplicate:
      return "queue_duplicate";
    case FaultClass::kForwardTransient:
      return "forward_transient";
    case FaultClass::kForwardPersistent:
      return "forward_persistent";
    case FaultClass::kForwardStall:
      return "forward_stall";
    case FaultClass::kWeightBit:
      return "weight_bit";
    case FaultClass::kModelBytes:
      return "model_bytes";
  }
  return "unknown";
}

namespace {

std::uint64_t sum(const std::array<std::uint64_t, kFaultClassCount>& a) {
  std::uint64_t t = 0;
  for (std::uint64_t v : a) t += v;
  return t;
}

}  // namespace

std::uint64_t Ledger::total_injected() const { return sum(injected); }
std::uint64_t Ledger::total_detected() const { return sum(detected); }
std::uint64_t Ledger::total_tolerated() const { return sum(tolerated); }

std::uint64_t Ledger::unaccounted() const {
  std::uint64_t u = 0;
  for (std::size_t i = 0; i < kFaultClassCount; ++i) {
    const std::uint64_t credited = detected[i] + tolerated[i];
    if (injected[i] > credited) u += injected[i] - credited;
  }
  return u;
}

bool Ledger::balanced() const {
  for (std::size_t i = 0; i < kFaultClassCount; ++i)
    if (injected[i] != detected[i] + tolerated[i]) return false;
  return true;
}

std::string Ledger::format() const {
  // Fixed order and fixed-width columns: the matrix determinism test
  // compares this string byte-for-byte across two seeded runs.
  std::string out =
      "fault ledger (invariant: injected == detected + tolerated)\n";
  char line[128];
  std::snprintf(line, sizeof(line), "  %-20s %9s %9s %10s\n", "class",
                "injected", "detected", "tolerated");
  out += line;
  for (std::size_t i = 0; i < kFaultClassCount; ++i) {
    std::snprintf(line, sizeof(line), "  %-20s %9llu %9llu %10llu\n",
                  to_string(static_cast<FaultClass>(i)),
                  static_cast<unsigned long long>(injected[i]),
                  static_cast<unsigned long long>(detected[i]),
                  static_cast<unsigned long long>(tolerated[i]));
    out += line;
  }
  std::snprintf(line, sizeof(line), "  %-20s %9llu %9llu %10llu\n", "TOTAL",
                static_cast<unsigned long long>(total_injected()),
                static_cast<unsigned long long>(total_detected()),
                static_cast<unsigned long long>(total_tolerated()));
  out += line;
  std::snprintf(line, sizeof(line), "  unaccounted %llu (%s)\n",
                static_cast<unsigned long long>(unaccounted()),
                balanced() ? "balanced" : "IMBALANCED");
  out += line;
  return out;
}

Injector::Injector(std::uint64_t seed) : rng_(seed) {}

void Injector::count_injected(FaultClass c) {
  ledger_.injected[static_cast<std::size_t>(c)] += 1;
  tm::counter(std::string("fault.injected.") + to_string(c)).add();
}

void Injector::count_detected(FaultClass c, std::uint64_t n) {
  if (n == 0) return;
  ledger_.detected[static_cast<std::size_t>(c)] += n;
  tm::counter(std::string("fault.detected.") + to_string(c)).add(n);
}

void Injector::count_tolerated(FaultClass c, std::uint64_t n) {
  if (n == 0) return;
  ledger_.tolerated[static_cast<std::size_t>(c)] += n;
  tm::counter(std::string("fault.tolerated.") + to_string(c)).add(n);
}

bool Injector::maybe_corrupt_ring(recon::ComptonRing& ring, double rate) {
  if (rate <= 0.0) return false;
  if (rng_.uniform() >= rate) return false;
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Each kind violates serve::ring_admissible by construction —
  // an injected ring fault that ingress validation would *pass* is an
  // injector bug the ledger invariant exposes.
  switch (rng_.uniform_index(8)) {
    case 0:
      ring.hit1.energy = kNan;
      break;
    case 1:
      ring.hit2.energy = kInf;
      break;
    case 2:
      ring.e_total = -std::abs(ring.e_total) - 1.0;
      break;
    case 3:
      ring.eta = 1.0 + rng_.uniform(0.5, 2.0);
      break;
    case 4:
      ring.eta = kNan;
      break;
    case 5:
      ring.axis.x = kNan;
      break;
    case 6:
      ring.d_eta = kNan;
      break;
    default:
      ring.e_total = kNan;
      break;
  }
  count_injected(FaultClass::kRingField);
  return true;
}

serve::QueueFault Injector::next_queue_fault(double drop_rate,
                                             double duplicate_rate) {
  // One draw decides both: [0, drop) -> drop, [drop, drop+dup) ->
  // duplicate, rest clean.  A single draw keeps the stream consumption
  // rate identical whatever the rates are.
  const double u = rng_.uniform();
  if (u < drop_rate) {
    count_injected(FaultClass::kQueueDrop);
    return serve::QueueFault::kDrop;
  }
  if (u < drop_rate + duplicate_rate) {
    count_injected(FaultClass::kQueueDuplicate);
    return serve::QueueFault::kDuplicate;
  }
  return serve::QueueFault::kNone;
}

void Injector::arm_transient(std::size_t attempts) {
  if (attempts == 0) return;
  count_injected(FaultClass::kForwardTransient);
  armed_failures_.fetch_add(attempts, std::memory_order_release);
}

void Injector::arm_persistent(std::size_t attempts) {
  if (attempts == 0) return;
  count_injected(FaultClass::kForwardPersistent);
  armed_failures_.fetch_add(attempts, std::memory_order_release);
}

void Injector::arm_stall(std::chrono::milliseconds duration) {
  if (duration.count() <= 0) return;
  count_injected(FaultClass::kForwardStall);
  armed_stall_ms_.store(duration.count(), std::memory_order_release);
}

void Injector::on_forward_attempt(std::size_t /*batch_size*/) {
  const std::int64_t stall_ms =
      armed_stall_ms_.exchange(0, std::memory_order_acq_rel);
  if (stall_ms > 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
  std::uint64_t armed = armed_failures_.load(std::memory_order_acquire);
  while (armed > 0) {
    if (armed_failures_.compare_exchange_weak(armed, armed - 1,
                                              std::memory_order_acq_rel))
      throw InjectedFault("injected forward failure");
  }
}

Injector::BitFlip Injector::flip_int8_weight_bit(quant::QuantizedMlp& model) {
  ADAPT_REQUIRE(model.num_layers() != 0, "model has no layers");
  BitFlip flip;
  flip.layer = rng_.uniform_index(model.num_layers());
  flip.byte_index = rng_.next_u64();
  flip.bit = static_cast<unsigned>(rng_.uniform_index(8));
  model.flip_weight_bit(flip.layer, flip.byte_index, flip.bit);
  count_injected(FaultClass::kWeightBit);
  return flip;
}

void Injector::flip_back(quant::QuantizedMlp& model, const BitFlip& flip) {
  model.flip_weight_bit(flip.layer, flip.byte_index, flip.bit);
}

void Injector::corrupt_fp32_weight(nn::Sequential& model) {
  auto params = model.params();
  ADAPT_REQUIRE(!params.empty(), "model has no parameters");
  auto& values = params[rng_.uniform_index(params.size())]->value.vec();
  ADAPT_REQUIRE(!values.empty(), "parameter tensor is empty");
  float& v = values[rng_.uniform_index(values.size())];
  // Flip one mantissa bit of the stored float: the value stays finite
  // (an exponent/sign upset could also happen in flight, but a finite
  // perturbation keeps the fault run independent of NaN propagation —
  // detection is the checksum's job either way).
  std::uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  bits ^= 1u << rng_.uniform_index(23);
  std::memcpy(&v, &bits, sizeof(bits));
  count_injected(FaultClass::kWeightBit);
}

std::string Injector::garble_bytes(std::string bytes) {
  const std::string original = bytes;
  if (!bytes.empty()) {
    switch (rng_.uniform_index(4)) {
      case 0:  // Truncated upload.
        bytes.resize(rng_.uniform_index(bytes.size()));
        break;
      case 1: {  // Single bit flip anywhere.
        auto& b = bytes[rng_.uniform_index(bytes.size())];
        b = static_cast<char>(static_cast<unsigned char>(b) ^
                              (1u << rng_.uniform_index(8)));
        break;
      }
      case 2: {  // Zeroed span (dropped block).
        const std::size_t start = rng_.uniform_index(bytes.size());
        const std::size_t len =
            std::min<std::size_t>(bytes.size() - start,
                                  1 + rng_.uniform_index(16));
        for (std::size_t i = 0; i < len; ++i) bytes[start + i] = '\0';
        break;
      }
      default: {  // Corrupt the checksum footer itself.
        const std::size_t tail = std::min<std::size_t>(bytes.size(), 8);
        auto& b = bytes[bytes.size() - 1 - rng_.uniform_index(tail)];
        b = static_cast<char>(static_cast<unsigned char>(b) ^ 0xFFu);
        break;
      }
    }
  }
  if (bytes == original) {
    // A zeroed span of already-zero bytes is a no-op; force a change
    // so the loader has something to reject.
    if (bytes.empty())
      bytes.push_back('\x01');
    else
      bytes.back() = static_cast<char>(
          static_cast<unsigned char>(bytes.back()) ^ 0x01u);
  }
  count_injected(FaultClass::kModelBytes);
  return bytes;
}

}  // namespace adapt::fault
