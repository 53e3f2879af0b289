#pragma once

/// \file load_generator.hpp
/// Load-generator helpers shared by the two serve harnesses
/// (throughput.cpp for serve-bench, flood.cpp for flood).  Internal to
/// src/serve.

#include <algorithm>
#include <cstddef>
#include <thread>
#include <vector>

namespace adapt::serve {

/// Sorts `values` in place and returns the element at rank
/// floor(p * (n - 1)); 0 for an empty set.
inline double percentile(std::vector<double>& values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[static_cast<std::size_t>(
      p * static_cast<double>(values.size() - 1))];
}

/// Replays events [0, n) from `producers` threads, each calling
/// `submit(i)` over one contiguous slice, and joins them.
template <typename Submit>
void fan_out_producers(std::size_t n, std::size_t producers,
                       const Submit& submit) {
  std::vector<std::thread> threads;
  const std::size_t per = (n + producers - 1) / producers;
  for (std::size_t p = 0; p < producers; ++p) {
    const std::size_t lo = p * per;
    const std::size_t hi = std::min(n, lo + per);
    if (lo >= hi) break;
    threads.emplace_back([&submit, lo, hi] {
      for (std::size_t i = lo; i < hi; ++i) submit(i);
    });
  }
  for (std::thread& t : threads) t.join();
}

}  // namespace adapt::serve
