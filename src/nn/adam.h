// Adam optimizer (Kingma & Ba), the optimizer used by the paper (§5.1).
#pragma once

#include <vector>

#include "nn/module.h"
#include "tensor/matrix.h"

namespace gnnhls {

struct AdamConfig {
  float lr = 1e-3F;
  float beta1 = 0.9F;
  float beta2 = 0.999F;
  float eps = 1e-8F;
  float weight_decay = 0.0F;  // decoupled (AdamW-style)
  float grad_clip = 0.0F;     // 0 disables; otherwise global-norm clip
};

class Adam {
 public:
  Adam(std::vector<Parameter*> params, AdamConfig config);
  explicit Adam(const Module& module, AdamConfig config = {})
      : Adam(module.parameters(), config) {}

  /// Applies one update from accumulated gradients, then zeroes them.
  void step();

  /// Data-parallel step: reduces the first `active` per-shard gradient
  /// buffers (one std::vector<Matrix> per shard, parameter-ordered, as
  /// exported by LeafGradRedirect) into the parameters' grad accumulators
  /// in shard order — a fixed reduction tree, so the update is
  /// bit-identical for any assignment of shards to threads — then applies
  /// step(). Entries beyond `active` are ignored, letting callers keep a
  /// buffer pool at full size across shorter tail steps; buffers with no
  /// entries (skipped shards) are ignored too.
  void step_merged(const std::vector<std::vector<Matrix>>& shard_grads,
                   std::size_t active = static_cast<std::size_t>(-1));

  void zero_grad();

  const AdamConfig& config() const { return config_; }
  void set_lr(float lr) { config_.lr = lr; }
  long step_count() const { return t_; }

 private:
  std::vector<Parameter*> params_;
  AdamConfig config_;
  std::vector<Matrix> m_;
  std::vector<Matrix> v_;
  long t_ = 0;
};

}  // namespace gnnhls
