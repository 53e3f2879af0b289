#include "nn/sequential.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/require.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/linear.hpp"

namespace adapt::nn {

void Sequential::add(LayerPtr layer) {
  ADAPT_REQUIRE(layer != nullptr, "null layer");
  layers_.push_back(std::move(layer));
}

namespace {

/// One per-column elementwise inference step folded into a GEMM
/// epilogue, computing exactly what the separate layer computes.
struct ColumnOp {
  enum class Kind { kBias, kRelu, kBatchNorm } kind;
  const float* shift = nullptr;    ///< Bias, or the BN running mean.
  const float* inv_std = nullptr;  ///< BN only.
  const float* gamma = nullptr;    ///< BN only.
  const float* beta = nullptr;     ///< BN only.
};

using Kind = ColumnOp::Kind;

/// One op on one element of column c, in the layer's own float order:
///   kBias       v + b[c]                               (Linear)
///   kRelu       v > 0 ? v : 0                          (ReLU)
///   kBatchNorm  (v - mu[c]) * inv_std[c] * g[c] + b[c] (BatchNorm1d)
template <Kind K>
inline float apply_op(const ColumnOp& op, float v, std::size_t c) {
  if constexpr (K == Kind::kBias) {
    return v + op.shift[c];
  } else if constexpr (K == Kind::kRelu) {
    return relu(v);
  } else {
    return (v - op.shift[c]) * op.inv_std[c] * op.gamma[c] + op.beta[c];
  }
}

/// ops[0..sizeof...(Ks)) applied in order to every element of a
/// (rows x cols) panel in ONE vectorized sweep: each element is loaded
/// and stored once, and its ops run back to back in registers.
template <Kind... Ks>
void sweep(const ColumnOp* ops, float* panel, std::size_t rows,
           std::size_t cols) {
  for (std::size_t r = 0; r < rows; ++r) {
    float* __restrict v = panel + r * cols;
#pragma omp simd
    for (std::size_t c = 0; c < cols; ++c) {
      float x = v[c];
      std::size_t i = 0;
      ((x = apply_op<Ks>(ops[i++], x, c)), ...);
      v[c] = x;
    }
  }
}

/// Applies the ops in order to a (rows x cols) panel.  The chains the
/// paper's networks produce get a single fused sweep; any other chain
/// runs one sweep per op, which computes the same bits.
void apply_column_ops(const std::vector<ColumnOp>& ops, float* panel,
                      std::size_t rows, std::size_t cols) {
  const auto is = [&](std::initializer_list<Kind> chain) {
    return std::equal(ops.begin(), ops.end(), chain.begin(), chain.end(),
                      [](const ColumnOp& op, Kind k) { return op.kind == k; });
  };
  const ColumnOp* o = ops.data();
  if (is({Kind::kBias, Kind::kRelu, Kind::kBatchNorm})) {  // BN->FC->ReLU
    sweep<Kind::kBias, Kind::kRelu, Kind::kBatchNorm>(o, panel, rows, cols);
  } else if (is({Kind::kBias, Kind::kBatchNorm, Kind::kRelu})) {  // Swapped.
    sweep<Kind::kBias, Kind::kBatchNorm, Kind::kRelu>(o, panel, rows, cols);
  } else if (is({Kind::kBias, Kind::kRelu})) {  // Last hidden block.
    sweep<Kind::kBias, Kind::kRelu>(o, panel, rows, cols);
  } else {
    for (const ColumnOp& op : ops) {
      switch (op.kind) {
        case Kind::kBias: sweep<Kind::kBias>(&op, panel, rows, cols); break;
        case Kind::kRelu: sweep<Kind::kRelu>(&op, panel, rows, cols); break;
        case Kind::kBatchNorm:
          sweep<Kind::kBatchNorm>(&op, panel, rows, cols);
          break;
      }
    }
  }
}

/// Appends the run of ReLU / BatchNorm1d layers starting at index i
/// to `ops` and returns the index just past the run.  BN scale factors
/// are computed into `inv_std` in BatchNorm1d::forward's float order;
/// it is sized before any op points into it.
std::size_t collect_column_ops(const std::vector<LayerPtr>& layers,
                               std::size_t i, std::size_t width,
                               std::vector<ColumnOp>& ops,
                               std::vector<float>& inv_std) {
  std::size_t end = i;
  std::size_t bn_features = 0;
  for (; end < layers.size(); ++end) {
    if (auto* bn = dynamic_cast<const BatchNorm1d*>(layers[end].get()))
      bn_features += bn->features();
    else if (dynamic_cast<const ReLU*>(layers[end].get()) == nullptr)
      break;
  }
  inv_std.resize(bn_features);
  float* factors = inv_std.data();
  for (std::size_t l = i; l < end; ++l) {
    const auto* bn = dynamic_cast<const BatchNorm1d*>(layers[l].get());
    if (bn == nullptr) {
      ops.push_back({Kind::kRelu});
      continue;
    }
    ADAPT_REQUIRE(bn->features() == width, "batchnorm width mismatch");
    const float eps = static_cast<float>(bn->eps());
    for (std::size_t c = 0; c < width; ++c)
      factors[c] = 1.0f / std::sqrt(bn->running_var()[c] + eps);
    ops.push_back({Kind::kBatchNorm, bn->running_mean().data(),
                   factors, bn->gamma().value.data(),
                   bn->beta().value.data()});
    factors += width;
  }
  return end;
}

}  // namespace

Tensor Sequential::forward(const Tensor& x, bool training) {
  if (!training) return infer(x);
  Tensor y = x;
  for (auto& layer : layers_) y = layer->forward(y, training);
  return y;
}

// Inference: every Linear GEMMs straight from the current activation
// panel into the other thread_local panel, then ONE epilogue pass
// applies its bias and the ReLU / BatchNorm1d layers that follow it.
// The per-element float ops and their order are exactly those of the
// separate layers' forward(x, false), so the result is bit-identical
// to running them one by one (tests/nn/fused_inference_test).  BN is
// never folded into the weights — that would round differently.  The
// panels are resized on use, never assumed large enough: one thread
// may run nets of different widths back to back.
Tensor Sequential::infer(const Tensor& x) {
  thread_local std::vector<float> panels[2];
  thread_local std::vector<ColumnOp> ops;
  thread_local std::vector<float> inv_std;
  const std::size_t n = x.rows();
  const float* act = x.data();  // Current activation, (n x width).
  std::size_t width = x.cols();
  int next = 0;          // Panel the next fused step writes.
  Tensor held;           // Output of a layer that ran its own forward().
  bool in_held = false;  // act points into `held`.

  const auto fresh_panel = [&](std::size_t cols) {
    std::vector<float>& p = panels[next];
    next ^= 1;
    if (p.size() < n * cols) p.resize(n * cols);
    return p.data();
  };

  for (std::size_t i = 0; i < layers_.size();) {
    const Layer* layer = layers_[i].get();
    const auto* lin = dynamic_cast<const Linear*>(layer);
    const bool column_op = dynamic_cast<const ReLU*>(layer) != nullptr ||
                           dynamic_cast<const BatchNorm1d*>(layer) != nullptr;
    if (lin == nullptr && !column_op) {
      Tensor in(n, width);
      std::copy(act, act + n * width, in.data());
      held = layers_[i]->forward(in, /*training=*/false);
      ADAPT_REQUIRE(held.rows() == n, "layer changed the batch size");
      act = held.data();
      width = held.cols();
      in_held = true;
      ++i;
      continue;
    }

    ops.clear();
    float* out = nullptr;
    if (lin != nullptr) {
      ADAPT_REQUIRE(width == lin->in_features(), "linear input width mismatch");
      out = fresh_panel(lin->out_features());
      matmul_abt(act, n, width, lin->weight().value, out);
      width = lin->out_features();
      ops.push_back({Kind::kBias, lin->bias().value.data()});
      in_held = false;
      ++i;
    } else if (in_held) {
      out = held.data();  // Ours already: normalize in place.
    } else {
      // A run with no GEMM before it (the paper net's input BN).
      out = fresh_panel(width);
      std::copy(act, act + n * width, out);
    }
    i = collect_column_ops(layers_, i, width, ops, inv_std);
    apply_column_ops(ops, out, n, width);
    act = out;
  }

  if (in_held) return held;
  Tensor y(n, width);
  std::copy(act, act + n * width, y.data());
  return y;
}

Tensor Sequential::backward(const Tensor& grad_out) {
  Tensor g = grad_out;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
    g = (*it)->backward(g);
  return g;
}

std::vector<Param*> Sequential::params() {
  std::vector<Param*> all;
  for (auto& layer : layers_)
    for (Param* p : layer->params()) all.push_back(p);
  return all;
}

void Sequential::zero_grad() {
  for (Param* p : params()) p->zero_grad();
}

std::size_t Sequential::n_parameters() {
  std::size_t n = 0;
  for (Param* p : params()) n += p->value.size();
  return n;
}

std::vector<std::vector<float>> Sequential::snapshot_weights() {
  std::vector<std::vector<float>> snap;
  for (Param* p : params()) snap.push_back(p->value.vec());
  // Batchnorm running statistics are state too.
  for (auto& layer : layers_) {
    if (auto* bn = dynamic_cast<BatchNorm1d*>(layer.get())) {
      snap.push_back(bn->running_mean());
      snap.push_back(bn->running_var());
    }
  }
  return snap;
}

void Sequential::restore_weights(
    const std::vector<std::vector<float>>& snapshot) {
  std::size_t idx = 0;
  for (Param* p : params()) {
    ADAPT_REQUIRE(idx < snapshot.size() &&
                      snapshot[idx].size() == p->value.size(),
                  "weight snapshot shape mismatch");
    p->value.vec() = snapshot[idx++];
  }
  for (auto& layer : layers_) {
    if (auto* bn = dynamic_cast<BatchNorm1d*>(layer.get())) {
      ADAPT_REQUIRE(idx + 1 < snapshot.size(), "snapshot missing BN stats");
      bn->running_mean() = snapshot[idx++];
      bn->running_var() = snapshot[idx++];
    }
  }
  ADAPT_REQUIRE(idx == snapshot.size(), "snapshot has extra entries");
}

std::string Sequential::describe() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (i) os << " -> ";
    os << layers_[i]->describe();
  }
  return os.str();
}

}  // namespace adapt::nn
