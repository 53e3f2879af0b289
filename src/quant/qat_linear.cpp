#include "quant/qat_linear.hpp"

#include <sstream>
#include <utility>

#include "core/require.hpp"

namespace adapt::quant {

QatLinear::QatLinear(std::size_t in_features, std::size_t out_features,
                     core::Rng& rng)
    : QatLinear(in_features, out_features,
                std::vector<float>(in_features * out_features),
                std::vector<float>(out_features)) {
  weight_.value.he_init(in_, rng);
}

QatLinear::QatLinear(std::size_t in_features, std::size_t out_features,
                     std::vector<float> weight, std::vector<float> bias)
    : in_(in_features), out_(out_features) {
  ADAPT_REQUIRE(in_features > 0 && out_features > 0,
                "qat linear dims must be positive");
  ADAPT_REQUIRE(weight.size() == in_features * out_features,
                "qat linear weight size must be in x out");
  ADAPT_REQUIRE(bias.size() == out_features,
                "qat linear bias size must be out");
  weight_.name = "weight";
  weight_.value = nn::Tensor(out_, in_, std::move(weight));
  weight_.zero_grad();
  bias_.name = "bias";
  bias_.value = nn::Tensor(1, out_, std::move(bias));
  bias_.zero_grad();
}

void QatLinear::load_weights(const nn::Tensor& weight,
                             const std::vector<float>& bias) {
  ADAPT_REQUIRE(weight.rows() == out_ && weight.cols() == in_,
                "weight shape mismatch");
  ADAPT_REQUIRE(bias.size() == out_, "bias size mismatch");
  weight_.value = weight;
  bias_.value.vec() = bias;
}

std::vector<ChannelQParams> QatLinear::channel_qparams() const {
  return weight_qparams(weight_.value, weight_bits_, per_channel_);
}

nn::Tensor QatLinear::quantized_weight() const {
  const auto qp = channel_qparams();
  nn::Tensor qw(out_, in_);
  for (std::size_t r = 0; r < out_; ++r)
    for (std::size_t c = 0; c < in_; ++c)
      qw(r, c) = qp[r].fake(weight_.value(r, c));
  return qw;
}

nn::Tensor QatLinear::forward(const nn::Tensor& x, bool training) {
  ADAPT_REQUIRE(x.cols() == in_, "qat linear input width mismatch");
  if (training) {
    // Backward needs the fake-quantized weight and the input; caching
    // them is only legal on the (single-threaded) training path.
    qweight_cache_ = quantized_weight();
    input_cache_ = x;
    nn::Tensor y;
    nn::matmul_abt(x, qweight_cache_, y);
    nn::add_row_broadcast(y, bias_.value.vec());
    return y;
  }
  // Inference writes no member state so concurrent callers can share
  // the layer (same rule as Linear / BatchNorm1d).
  const nn::Tensor qw = quantized_weight();
  nn::Tensor y;
  nn::matmul_abt(x, qw, y);
  nn::add_row_broadcast(y, bias_.value.vec());
  return y;
}

nn::Tensor QatLinear::backward(const nn::Tensor& grad_out) {
  ADAPT_REQUIRE(grad_out.cols() == out_, "qat linear grad width mismatch");
  ADAPT_REQUIRE(grad_out.rows() == input_cache_.rows(),
                "backward batch mismatch (forward(training=true) first?)");

  nn::Tensor dw;
  nn::matmul_atb(grad_out, input_cache_, dw);
  for (std::size_t i = 0; i < dw.size(); ++i)
    weight_.grad.vec()[i] += dw.vec()[i];

  for (std::size_t r = 0; r < grad_out.rows(); ++r)
    for (std::size_t c = 0; c < out_; ++c)
      bias_.grad(0, c) += grad_out(r, c);

  nn::Tensor dx;
  nn::matmul_ab(grad_out, qweight_cache_, dx);
  return dx;
}

std::string QatLinear::describe() const {
  std::ostringstream os;
  os << "qat_linear(" << in_ << " -> " << out_ << ")";
  return os.str();
}

}  // namespace adapt::quant
