#include "nn/optimizer.hpp"

#include "core/require.hpp"

namespace adapt::nn {

Sgd::Sgd(std::vector<Param*> params, const SgdConfig& config)
    : params_(std::move(params)), config_(config) {
  ADAPT_REQUIRE(config.learning_rate > 0.0, "learning rate must be > 0");
  ADAPT_REQUIRE(config.momentum >= 0.0 && config.momentum < 1.0,
                "momentum must be in [0, 1)");
  ADAPT_REQUIRE(config.weight_decay >= 0.0, "weight decay must be >= 0");
  velocity_.reserve(params_.size());
  for (Param* p : params_) {
    ADAPT_REQUIRE(p != nullptr, "null parameter");
    velocity_.emplace_back(p->value.size(), 0.0f);
  }
}

void Sgd::step() {
  const auto lr = static_cast<float>(config_.learning_rate);
  const auto mu = static_cast<float>(config_.momentum);
  const auto wd = static_cast<float>(config_.weight_decay);
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Param* p = params_[i];
    auto& vel = velocity_[i];
    ADAPT_REQUIRE(p->grad.size() == p->value.size(),
                  "gradient not allocated (zero_grad before backward?)");
    for (std::size_t j = 0; j < vel.size(); ++j) {
      float g = p->grad.vec()[j];
      if (wd > 0.0f) g += wd * p->value.vec()[j];
      vel[j] = mu * vel[j] + g;
      p->value.vec()[j] -= lr * vel[j];
    }
  }
}

}  // namespace adapt::nn
