#pragma once

/// \file thresholds.hpp
/// Per-polar-angle-bin classification thresholds (paper Sec. III):
/// "we divided the range of input polar angles into ten-degree bins
/// and chose an output threshold for each bin that minimized training
/// loss; the threshold is then selected dynamically at inference time
/// based on the input polar angle."
///
/// Thresholds are stored on the *logit* scale — the sigmoid is
/// bijective, so thresholding the logit is equivalent and lets the
/// FPGA kernel skip the sigmoid entirely (paper Sec. V).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace adapt::pipeline {

class PolarThresholds {
 public:
  static constexpr int kBinWidthDeg = 10;
  static constexpr int kNumBins = 9;  ///< 0-10, ..., 80-90 degrees.

  PolarThresholds();

  /// Bin index for a polar angle in degrees (clamped to [0, 90)).
  static int bin_of(double polar_deg);

  double logit_threshold(double polar_deg) const;

  /// The background decision: a ring is background when its logit
  /// reaches the threshold of its polar bin.  Every classifier path
  /// (per-ring, prepared, batched, accuracy) decides through this.
  bool is_background(float logit, double polar_deg) const {
    return static_cast<double>(logit) >= logit_threshold(polar_deg);
  }
  void set_logit_threshold(int bin, double threshold);

  /// Fit: for each bin, pick the logit threshold minimizing the 0/1
  /// classification error of (logit, label, polar) triples falling in
  /// that bin.  Bins with no data keep the neutral threshold 0
  /// (probability 0.5).
  void fit(const std::vector<float>& logits,
           const std::vector<float>& labels,
           const std::vector<double>& polar_degs);

  /// Round-trip through model metadata ("polar_thr_<bin>").
  std::map<std::string, double> to_metadata() const;
  static PolarThresholds from_metadata(
      const std::map<std::string, double>& metadata);

 private:
  std::vector<double> thresholds_;  ///< Logit scale, one per bin.
};

}  // namespace adapt::pipeline
