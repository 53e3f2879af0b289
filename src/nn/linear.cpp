#include "nn/linear.hpp"

#include <sstream>
#include <utility>

#include "core/require.hpp"

namespace adapt::nn {

Linear::Linear(std::size_t in_features, std::size_t out_features,
               core::Rng& rng)
    : Linear(in_features, out_features,
             std::vector<float>(in_features * out_features),
             std::vector<float>(out_features)) {
  weight_.value.he_init(in_, rng);
}

Linear::Linear(std::size_t in_features, std::size_t out_features,
               std::vector<float> weight, std::vector<float> bias)
    : in_(in_features), out_(out_features) {
  ADAPT_REQUIRE(in_features > 0 && out_features > 0,
                "linear layer dims must be positive");
  ADAPT_REQUIRE(weight.size() == in_features * out_features,
                "linear weight size must be in x out");
  ADAPT_REQUIRE(bias.size() == out_features, "linear bias size must be out");
  weight_.name = "weight";
  weight_.value = Tensor(out_, in_, std::move(weight));
  weight_.zero_grad();
  bias_.name = "bias";
  bias_.value = Tensor(1, out_, std::move(bias));
  bias_.zero_grad();
}

Tensor Linear::forward(const Tensor& x, bool training) {
  ADAPT_REQUIRE(x.cols() == in_, "linear input width mismatch");
  if (training) input_cache_ = x;
  Tensor y;
  matmul_abt(x, weight_.value, y);
  add_row_broadcast(y, bias_.value.vec());
  return y;
}

Tensor Linear::backward(const Tensor& grad_out) {
  ADAPT_REQUIRE(grad_out.cols() == out_, "linear grad width mismatch");
  ADAPT_REQUIRE(grad_out.rows() == input_cache_.rows(),
                "backward batch mismatch (forward(training=true) first?)");

  // dW = grad_out^T * x; db = column sums; dx = grad_out * W.
  Tensor dw;
  matmul_atb(grad_out, input_cache_, dw);
  for (std::size_t i = 0; i < dw.size(); ++i)
    weight_.grad.vec()[i] += dw.vec()[i];

  for (std::size_t r = 0; r < grad_out.rows(); ++r)
    for (std::size_t c = 0; c < out_; ++c)
      bias_.grad(0, c) += grad_out(r, c);

  Tensor dx;
  matmul_ab(grad_out, weight_.value, dx);
  return dx;
}

std::string Linear::describe() const {
  std::ostringstream os;
  os << "linear(" << in_ << " -> " << out_ << ")";
  return os.str();
}

}  // namespace adapt::nn
