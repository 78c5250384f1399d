#include "nn/adam.h"

#include <cmath>

namespace gnnhls {

Adam::Adam(std::vector<Parameter*> params, AdamConfig config)
    : params_(std::move(params)), config_(config) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const auto* p : params_) {
    m_.emplace_back(p->value().rows(), p->value().cols());
    v_.emplace_back(p->value().rows(), p->value().cols());
  }
}

void Adam::step() {
  ++t_;
  const float bias1 = 1.0F - std::pow(config_.beta1, static_cast<float>(t_));
  const float bias2 = 1.0F - std::pow(config_.beta2, static_cast<float>(t_));

  float clip_scale = 1.0F;
  if (config_.grad_clip > 0.0F) {
    double total = 0.0;
    for (auto* p : params_) total += p->mutable_grad().squared_norm();
    const double norm = std::sqrt(total);
    if (norm > config_.grad_clip) {
      clip_scale = static_cast<float>(config_.grad_clip / norm);
    }
  }

  for (std::size_t k = 0; k < params_.size(); ++k) {
    Parameter& p = *params_[k];
    Matrix& grad = p.mutable_grad();
    Matrix& value = p.mutable_value();
    for (std::size_t i = 0; i < grad.size(); ++i) {
      const float g = grad.data()[i] * clip_scale;
      float& m = m_[k].data()[i];
      float& v = v_[k].data()[i];
      m = config_.beta1 * m + (1.0F - config_.beta1) * g;
      v = config_.beta2 * v + (1.0F - config_.beta2) * g * g;
      const float mhat = m / bias1;
      const float vhat = v / bias2;
      float update = config_.lr * mhat / (std::sqrt(vhat) + config_.eps);
      if (config_.weight_decay > 0.0F) {
        update += config_.lr * config_.weight_decay * value.data()[i];
      }
      value.data()[i] -= update;
    }
  }
  zero_grad();
}

void Adam::step_merged(const std::vector<std::vector<Matrix>>& shard_grads,
                       std::size_t active) {
  const std::size_t n = std::min(active, shard_grads.size());
  for (std::size_t s = 0; s < n; ++s) {
    const std::vector<Matrix>& shard = shard_grads[s];
    if (shard.empty()) continue;
    GNNHLS_CHECK_EQ(shard.size(), params_.size(),
                    "step_merged: shard buffer / parameter count mismatch");
    for (std::size_t k = 0; k < params_.size(); ++k) {
      if (shard[k].empty()) continue;  // leaf without requires_grad
      params_[k]->mutable_grad().add_inplace(shard[k]);
    }
  }
  step();
}

void Adam::zero_grad() {
  for (auto* p : params_) p->zero_grad();
}

}  // namespace gnnhls
