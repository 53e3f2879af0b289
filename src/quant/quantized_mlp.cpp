#include "quant/quantized_mlp.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "core/checksum.hpp"
#include "core/contract.hpp"
#include "core/parallel.hpp"
#include "nn/activations.hpp"
#include "nn/kernels/kernels.hpp"
#include "quant/fake_quant.hpp"
#include "quant/qat_linear.hpp"

namespace adapt::quant {

QuantizedMlp::QuantizedMlp(std::vector<QuantizedLayer> layers)
    : layers_(std::move(layers)) {
  ADAPT_REQUIRE(!layers_.empty(), "quantized model needs layers");
  max_width_ = layers_.front().in_features;
  for (const auto& l : layers_) {
    ADAPT_REQUIRE(l.weight.size() == l.in_features * l.out_features,
                  "quantized weight size mismatch");
    ADAPT_REQUIRE(l.bias.size() == l.out_features, "bias size mismatch");
    ADAPT_REQUIRE(l.weight_scales.size() == l.out_features,
                  "scale count mismatch");
    // A zero, negative, or non-finite scale silently zeroes (or NaNs)
    // every requantized activation downstream — checked builds refuse
    // the model here instead of producing garbage scores in flight.
    ADAPT_CHECK_QUANT_SCALE(l.input_q.scale, "QuantizedLayer.input_q.scale");
    for (const float s : l.weight_scales)
      ADAPT_CHECK_QUANT_SCALE(s, "QuantizedLayer.weight_scales[oc]");
    max_width_ = std::max(max_width_, l.out_features);
  }
  // Fold the activation zero point out of the inner loop:
  // sum (q_x - zp) * q_w == sum q_x * q_w - zp * sum q_w, and the
  // weight row sums are input-independent.  Then pack the weights and
  // drop the row-major copy.
  weight_row_sums_.reserve(layers_.size());
  panels_.reserve(layers_.size());
  for (auto& l : layers_) {
    std::vector<std::int32_t> sums(l.out_features, 0);
    for (std::size_t oc = 0; oc < l.out_features; ++oc) {
      const std::int8_t* w = l.weight.data() + oc * l.in_features;
      std::int32_t s = 0;
      for (std::size_t ic = 0; ic < l.in_features; ++ic)
        s += static_cast<std::int32_t>(w[ic]);
      sums[oc] = s;
    }
    weight_row_sums_.push_back(std::move(sums));
    std::vector<std::int8_t> panel(
        nn::kernels::panel_bytes(l.in_features, l.out_features));
    nn::kernels::pack_panel(l.weight.data(), l.in_features, l.out_features,
                            panel.data());
    panels_.push_back(std::move(panel));
    l.weight = {};
  }
}

nn::Tensor QuantizedMlp::forward(const nn::Tensor& x) const {
  ADAPT_REQUIRE(x.cols() == layers_.front().in_features,
                "input width mismatch");
  const std::size_t n = x.rows();
  const nn::kernels::KernelSet& kset = nn::kernels::active();

  // Activations travel between layers as uint8 plus their qparams, in
  // two thread_local ping-pong buffers: no per-call heap traffic on
  // the serving hot path, and each concurrent caller gets its own
  // scratch — forward() is const and must stay safe on a shared
  // engine.  The panels are sized for THIS call's batch and THIS
  // model's widest layer on every entry (resize, never a cached
  // capacity assumption): one thread may serve engines of different
  // widths back to back, and a stale smaller capacity would be an
  // out-of-bounds write (see quantized_mlp_simd_test's cross-width
  // regression case).
  thread_local std::vector<std::uint8_t> ping;
  thread_local std::vector<std::uint8_t> pong;
  ping.resize(n * max_width_);
  pong.resize(n * max_width_);
  std::uint8_t* act = ping.data();
  std::uint8_t* next_act = pong.data();
  {
    const QParams& q = layers_.front().input_q;
    const std::size_t in0 = n * x.cols();
    for (std::size_t i = 0; i < in0; ++i)
      act[i] = static_cast<std::uint8_t>(q.quantize(x.vec()[i]));
  }

  nn::Tensor out;
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    const QuantizedLayer& layer = layers_[li];
    const bool last = li + 1 == layers_.size();
    const std::int32_t zp_in = layer.input_q.zero_point;
    const float s_in = layer.input_q.scale;
    const std::int32_t* row_sums = weight_row_sums_[li].data();
    const QParams* next_q = last ? nullptr : &layers_[li + 1].input_q;
    if (last) out = nn::Tensor(n, layer.out_features);

    // One quantized GEMM per layer over the whole activation panel,
    // handed out in multi-row blocks (~128k MACs each, rounded up to
    // whole kernel row tiles, so the 256 -> 128 layer runs full 8-row
    // tiles, not 4-row blocks) so the kernel amortizes its setup and
    // parallel_for its scheduling.  The integer accumulation is
    // associative, so block shape cannot change results.
    const std::size_t macs = layer.in_features * layer.out_features;
    constexpr std::size_t kTile = nn::kernels::kU8I8RowTile;
    const std::size_t target_rows = std::max<std::size_t>(
        1, (128 * 1024) / std::max<std::size_t>(macs, 1));
    const std::size_t block_rows = (target_rows + kTile - 1) / kTile * kTile;
    const std::size_t n_blocks = (n + block_rows - 1) / block_rows;
    kset.u8i8_calls->add();
    if (!last) kset.requant_calls->add();
    core::parallel_for(
        n_blocks,
        [&](std::size_t blk) {
          const std::size_t r0 = blk * block_rows;
          const std::size_t r1 = std::min(n, r0 + block_rows);
          const std::size_t rows = r1 - r0;
          // Per-thread int32 accumulator panel, reused across blocks.
          thread_local std::vector<std::int32_t> acc_buf;
          acc_buf.resize(rows * layer.out_features);
          std::int32_t* __restrict acc = acc_buf.data();

          kset.u8i8_gemm(act + r0 * layer.in_features, panels_[li].data(),
                         acc, rows, layer.in_features, layer.out_features);

          // Epilogue: zero-point correction, bias, ReLU, then
          // requantization.  Hidden layers go through the dispatched
          // u8_requant kernel — bit-identical to the scalar reference
          // by the kernels.hpp contract — because at ~450 outputs per
          // event the rounding math dominates once the GEMM is
          // vectorized.  The last layer stays scalar: it emits a
          // handful of floats per row, not a panel.
          const std::int32_t* __restrict bias = layer.bias.data();
          const float* __restrict ws = layer.weight_scales.data();
          if (last) {
            for (std::size_t r = r0; r < r1; ++r) {
              const std::int32_t* __restrict ar =
                  acc + (r - r0) * layer.out_features;
              float* __restrict or_ = out.data() + r * layer.out_features;
              for (std::size_t oc = 0; oc < layer.out_features; ++oc) {
                std::int32_t a = ar[oc] - zp_in * row_sums[oc] + bias[oc];
                if (layer.relu && a < 0) a = 0;
                or_[oc] = static_cast<float>(a) * s_in * ws[oc];
              }
            }
          } else {
            kset.u8_requant(acc, rows, layer.out_features, zp_in, row_sums,
                            bias, layer.relu, s_in, ws, next_q->scale,
                            next_q->zero_point,
                            next_act + r0 * layer.out_features);
          }
        },
        1);
    if (!last) std::swap(act, next_act);
  }
  return out;
}

std::size_t QuantizedMlp::model_size_bytes() const {
  std::size_t bytes = 0;
  for (const auto& l : layers_) {
    bytes += l.in_features * l.out_features * sizeof(std::int8_t);
    bytes += l.bias.size() * sizeof(std::int32_t);
    bytes += l.weight_scales.size() * sizeof(float);
  }
  return bytes;
}

std::size_t QuantizedMlp::packed_weight_bytes() const {
  std::size_t bytes = 0;
  for (const auto& p : panels_) bytes += p.size();
  return bytes;
}

std::vector<QuantizedLayer> QuantizedMlp::layers() const {
  std::vector<QuantizedLayer> out = layers_;
  for (std::size_t li = 0; li < out.size(); ++li) {
    QuantizedLayer& l = out[li];
    l.weight.resize(l.in_features * l.out_features);
    for (std::size_t oc = 0; oc < l.out_features; ++oc)
      for (std::size_t ic = 0; ic < l.in_features; ++ic)
        l.weight[oc * l.in_features + ic] =
            panels_[li][nn::kernels::panel_offset(l.in_features, oc, ic)];
  }
  return out;
}

std::uint64_t QuantizedMlp::weight_checksum() const {
  core::Fnv1a64 h;
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    const QuantizedLayer& l = layers_[li];
    h.update(panels_[li].data(), panels_[li].size() * sizeof(std::int8_t));
    h.update(l.bias.data(), l.bias.size() * sizeof(std::int32_t));
    h.update(l.weight_scales.data(), l.weight_scales.size() * sizeof(float));
  }
  return h.digest();
}

void QuantizedMlp::flip_weight_bit(std::size_t layer, std::size_t byte_index,
                                   unsigned bit) {
  ADAPT_REQUIRE(layer < layers_.size(), "flip_weight_bit: layer out of range");
  const QuantizedLayer& l = layers_[layer];
  const std::size_t count = l.in_features * l.out_features;
  ADAPT_REQUIRE(count != 0, "flip_weight_bit: layer has no weights");
  const std::size_t logical = byte_index % count;
  auto& w = panels_[layer][nn::kernels::panel_offset(
      l.in_features, logical / l.in_features, logical % l.in_features)];
  w = static_cast<std::int8_t>(static_cast<std::uint8_t>(w) ^
                               static_cast<std::uint8_t>(1u << (bit % 8u)));
}

nn::Sequential build_qat_model(const std::vector<FusedLayer>& fused,
                               core::Rng& rng,
                               const QuantStrategy& strategy) {
  ADAPT_REQUIRE(!fused.empty(), "no fused layers");
  nn::Sequential model;
  model.add(std::make_unique<FakeQuant>());
  for (std::size_t i = 0; i < fused.size(); ++i) {
    const FusedLayer& stage = fused[i];
    auto lin = std::make_unique<QatLinear>(stage.in_features(),
                                           stage.out_features(), rng);
    lin->load_weights(stage.weight, stage.bias);
    lin->set_weight_bits(strategy.weight_bits);
    lin->set_per_channel(strategy.per_channel);
    model.add(std::move(lin));
    if (stage.relu) model.add(std::make_unique<nn::ReLU>());
    if (i + 1 < fused.size()) model.add(std::make_unique<FakeQuant>());
  }
  return model;
}

QuantizedMlp export_quantized(nn::Sequential& qat_model) {
  std::vector<QuantizedLayer> layers;
  const FakeQuant* pending_q = nullptr;

  for (std::size_t i = 0; i < qat_model.n_layers(); ++i) {
    nn::Layer& layer = qat_model.layer(i);
    if (auto* fq = dynamic_cast<FakeQuant*>(&layer)) {
      ADAPT_REQUIRE(fq->observed(),
                    "FakeQuant never calibrated — run data through the QAT "
                    "model first");
      pending_q = fq;
      continue;
    }
    if (auto* lin = dynamic_cast<QatLinear*>(&layer)) {
      ADAPT_REQUIRE(pending_q != nullptr,
                    "QatLinear without a preceding FakeQuant");
      QuantizedLayer out;
      out.in_features = lin->in_features();
      out.out_features = lin->out_features();
      out.input_q = pending_q->qparams();

      const auto qp = lin->channel_qparams();
      out.weight.resize(out.in_features * out.out_features);
      out.weight_scales.resize(out.out_features);
      out.bias.resize(out.out_features);
      for (std::size_t oc = 0; oc < out.out_features; ++oc) {
        out.weight_scales[oc] = qp[oc].scale;
        for (std::size_t ic = 0; ic < out.in_features; ++ic) {
          out.weight[oc * out.in_features + ic] = static_cast<std::int8_t>(
              qp[oc].quantize(lin->weight().value(oc, ic)));
        }
        const float bias_scale = out.input_q.scale * qp[oc].scale;
        out.bias[oc] = static_cast<std::int32_t>(
            std::lround(lin->bias().value(0, oc) / bias_scale));
      }
      layers.push_back(std::move(out));
      continue;
    }
    if (dynamic_cast<nn::ReLU*>(&layer) != nullptr) {
      ADAPT_REQUIRE(!layers.empty(), "ReLU before any linear layer");
      layers.back().relu = true;
      continue;
    }
    ADAPT_REQUIRE(false, "unexpected layer type in QAT model");
  }
  return QuantizedMlp(std::move(layers));
}

}  // namespace adapt::quant
