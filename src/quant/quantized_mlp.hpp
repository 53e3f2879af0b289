#pragma once

/// \file quantized_mlp.hpp
/// The INT8 integer inference engine and the QAT assembly/export flow
/// (paper Sec. V).
///
/// Flow mirroring PyTorch's Eager-mode QAT with the 'x86' config:
///   1. train the layer-swapped FP32 model (nn::mlp, swap_bn_fc=true);
///   2. fold BatchNorm into the Linears (quant::fuse_bn);
///   3. build_qat_model() inserts activation FakeQuant observers and
///      weight-fake-quantizing QatLinears;
///   4. calibrate / fine-tune with nn::Trainer;
///   5. export_quantized() emits this integer engine: uint8 affine
///      activations, per-channel symmetric int8 weights, int32
///      accumulation and bias, float requantization multipliers.
///
/// The engine computes genuinely in integers (the only float per layer
/// is the requantization multiply), so its outputs quantify the real
/// INT8 accuracy cost in Fig. 11 — not a float emulation.

#include <cstdint>
#include <vector>

#include "nn/sequential.hpp"
#include "quant/fuse.hpp"
#include "quant/qparams.hpp"

namespace adapt::quant {

/// One exported layer.  This is the exchange form QuantizedMlp is
/// built from: the engine packs `weight` into its panel and keeps no
/// row-major copy.
struct QuantizedLayer {
  std::size_t in_features = 0;
  std::size_t out_features = 0;
  std::vector<std::int8_t> weight;    ///< (out x in), row-major.
  std::vector<std::int32_t> bias;     ///< In s_in * s_w[oc] units.
  std::vector<float> weight_scales;   ///< Per output channel.
  QParams input_q;                    ///< uint8 params of this layer's
                                      ///< input activation.
  bool relu = false;
};

/// The deployed engine.  Each layer's weights live in exactly one
/// place, the packed panel u8i8_gemm reads (nn/kernels/kernels.hpp:
/// 64-byte blocks of 16 output channels x 4 input bytes, zero-padded),
/// packed once at construction.  The checksum digests those bytes and
/// the SEU hook flips them, so what is verified is what is computed.
class QuantizedMlp {
 public:
  explicit QuantizedMlp(std::vector<QuantizedLayer> layers);

  /// Run a float batch through the integer pipeline; returns float
  /// outputs (n x out_features of the last layer) — for the
  /// background network, pre-sigmoid logits.
  nn::Tensor forward(const nn::Tensor& x) const;

  /// Logical weight + bias + scale storage in bytes: in * out int8
  /// weights per layer, no panel padding (INT8 footprint; the number
  /// the paper's BRAM comparison cares about).
  std::size_t model_size_bytes() const;

  /// Bytes of the packed weight panels the forward reads, padding
  /// included.
  std::size_t packed_weight_bytes() const;

  std::size_t num_layers() const { return layers_.size(); }

  /// The layers in exchange form.  Built on each call: the row-major
  /// weights are unpacked from the panels, so they show any flipped
  /// bit.
  std::vector<QuantizedLayer> layers() const;

  /// FNV-1a digest of every packed panel byte (padding included), bias
  /// and scale, in layer order.  Recorded at deploy time and recomputed
  /// on the serve router's health ticks: any in-memory bit flip in
  /// what the forward reads changes the digest.
  std::uint64_t weight_checksum() const;

  /// SEU-emulation hook for fault injection (src/fault): flips one bit
  /// of one stored int8 weight, exactly as an upset in weight memory
  /// would.  `byte_index` wraps modulo the layer's logical weight count
  /// in * out and names the row-major byte oc * in + ic; the flip lands
  /// on that weight's byte in the packed panel, never on padding.
  /// Deliberately does NOT refresh the precomputed zero-point row
  /// sums — a real upset would not either; the folded constants going
  /// stale is part of the corruption the checksum must catch.
  void flip_weight_bit(std::size_t layer, std::size_t byte_index,
                       unsigned bit);

 private:
  /// Shapes, bias, scales, qparams and relu.  Their `weight` vectors
  /// are released once packed: panels_ holds the one copy.
  std::vector<QuantizedLayer> layers_;
  std::vector<std::vector<std::int8_t>> panels_;
  /// Per-layer, per-output-channel weight row sums, precomputed at
  /// construction so the inner inference loop is a pure q_x * q_w dot
  /// product: sum (q_x - zp) * q_w == sum q_x * q_w - zp * row_sum.
  std::vector<std::vector<std::int32_t>> weight_row_sums_;
  std::size_t max_width_ = 0;  ///< Widest activation, for the ping-pong
                               ///< buffers forward() allocates once.
};

/// Weight-quantization strategy (paper Sec. VI future work: "a broader
/// range of quantization strategies").  The default reproduces the
/// paper's PyTorch 'x86' setup.
struct QuantStrategy {
  int weight_bits = 8;      ///< Symmetric weight bit width, [2, 16].
  bool per_channel = true;  ///< Per-output-channel vs per-tensor scale.
};

/// Step 3: wrap fused FP32 stages into a QAT-trainable Sequential:
/// FakeQuant -> [QatLinear -> (ReLU) -> FakeQuant]* -> QatLinear.
/// The final layer's output is left unquantized (it feeds a threshold,
/// not another integer layer).
nn::Sequential build_qat_model(const std::vector<FusedLayer>& fused,
                               core::Rng& rng,
                               const QuantStrategy& strategy = {});

/// Step 5: read the calibrated observers and quantized weights out of
/// a QAT model produced by build_qat_model.
QuantizedMlp export_quantized(nn::Sequential& qat_model);

}  // namespace adapt::quant
