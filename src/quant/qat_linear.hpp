#pragma once

/// \file qat_linear.hpp
/// Fully connected layer with fake-quantized weights for QAT.
///
/// The latent weights stay FP32 (the optimizer updates them), but each
/// forward pass uses their per-channel symmetric INT8 projection, so
/// the training loss sees the rounding the deployed kernel will apply.
/// Gradients use the straight-through estimator: backward behaves as
/// if the quantizer were the identity, computed against the quantized
/// weights.

#include "nn/layer.hpp"
#include "quant/qparams.hpp"

namespace adapt::quant {

class QatLinear : public nn::Layer {
 public:
  /// He-initialized weights drawn from `rng`, zero bias.
  QatLinear(std::size_t in_features, std::size_t out_features,
            core::Rng& rng);
  /// Takes `weight` (out x in, row-major) and `bias` (out) as they are,
  /// with no draw: the QAT loader's constructor.  Both sizes are
  /// checked against the dims.
  QatLinear(std::size_t in_features, std::size_t out_features,
            std::vector<float> weight, std::vector<float> bias);

  /// Initialize from pre-trained fused weights (the usual QAT flow:
  /// train FP32, fold BN, fine-tune quantized).
  void load_weights(const nn::Tensor& weight, const std::vector<float>& bias);

  nn::Tensor forward(const nn::Tensor& x, bool training) override;
  nn::Tensor backward(const nn::Tensor& grad_out) override;
  std::vector<nn::Param*> params() override { return {&weight_, &bias_}; }
  std::string type() const override { return "qat_linear"; }
  std::string describe() const override;

  std::size_t in_features() const { return in_; }
  std::size_t out_features() const { return out_; }
  const nn::Param& weight() const { return weight_; }
  const nn::Param& bias() const { return bias_; }

  /// Quantized projection of the current weights (what export uses).
  nn::Tensor quantized_weight() const;
  std::vector<ChannelQParams> channel_qparams() const;

  /// Quantization strategy knobs (paper future work: "a broader range
  /// of quantization strategies").  Defaults match PyTorch's x86
  /// backend: 8-bit, per-output-channel symmetric.
  void set_weight_bits(int bits) { weight_bits_ = bits; }
  int weight_bits() const { return weight_bits_; }
  void set_per_channel(bool per_channel) { per_channel_ = per_channel; }
  bool per_channel() const { return per_channel_; }

 private:
  std::size_t in_;
  std::size_t out_;
  int weight_bits_ = 8;
  bool per_channel_ = true;
  nn::Param weight_;
  nn::Param bias_;
  nn::Tensor input_cache_;
  nn::Tensor qweight_cache_;
};

}  // namespace adapt::quant
