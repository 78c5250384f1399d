#include "train/trainer.h"

#include <algorithm>

#include "obs/trace.h"
#include "support/parallel.h"

namespace gnnhls {

namespace {

/// splitmix64 finalizer: decorrelates the per-(epoch, batch) dropout seeds
/// derived from one base seed.
std::uint64_t mix_seed(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

float lr_at_epoch(float base_lr, int epoch, int total_epochs) {
  const double progress =
      static_cast<double>(epoch) / std::max(total_epochs, 1);
  if (progress < 0.6) return base_lr;
  if (progress < 0.85) return base_lr * 0.3F;
  return base_lr * 0.1F;
}

Trainer::Trainer(Module& model, TrainConfig cfg, Hooks hooks,
                 std::uint64_t dropout_seed)
    : model_(model),
      cfg_(cfg),
      hooks_(std::move(hooks)),
      dropout_seed_(dropout_seed) {
  GNNHLS_CHECK(hooks_.forward && hooks_.loss, "Trainer: missing hooks");
  param_leaves_.reserve(model_.parameters().size());
  for (const Parameter* p : model_.parameters()) {
    param_leaves_.push_back(p->var());
  }
}

FitReport Trainer::fit(BatchPlan& plan, const FitOptions& /*opts*/,
                       const std::function<void(int)>& on_epoch_end) {
  const int epochs = cfg_.epochs;
  Adam opt(model_, AdamConfig{.lr = cfg_.lr,
                              .weight_decay = cfg_.weight_decay,
                              .grad_clip = cfg_.grad_clip});
  Rng dropout_rng(dropout_seed_);
  for (int epoch = 0; epoch < epochs; ++epoch) {
    const ObsSpan epoch_span(cfg_.obs.trace, "epoch", "train");
    opt.set_lr(lr_at_epoch(cfg_.lr, epoch, epochs));
    if (plan.batched()) {
      run_batched_epoch(plan, opt, epoch);
    } else {
      run_legacy_epoch(plan, opt, dropout_rng);
    }
    if (on_epoch_end) on_epoch_end(epoch);
  }
  FitReport report;
  report.epochs_run = epochs;
  report.steps = opt.step_count();
  return report;
}

void Trainer::run_legacy_epoch(BatchPlan& plan, Adam& opt, Rng& dropout_rng) {
  // One graph per tape, optimizer step every batch_graphs graphs, one
  // shared sequential dropout stream: bit-for-bit the pre-refactor loop.
  const std::vector<int>& order = plan.next_epoch_sample_order();
  int accumulated = 0;
  for (int idx : order) {
    Tape tape;
    const Var out = hooks_.forward(tape, plan.sample_tensors(idx),
                                   plan.sample_features(idx), dropout_rng);
    tape.backward(hooks_.loss(tape, out, plan.sample_labels(idx)));
    if (++accumulated >= cfg_.batch_graphs) {
      opt.step();
      accumulated = 0;
    }
  }
  if (accumulated > 0) opt.step();
}

void Trainer::run_batched_epoch(BatchPlan& plan, Adam& opt, int epoch) {
  const std::vector<int>& order = plan.next_epoch_batch_order();
  const std::size_t span =
      static_cast<std::size_t>(std::max(cfg_.grad_accum, 1));
  for (std::size_t pos = 0; pos < order.size(); pos += span) {
    const int n = static_cast<int>(std::min(span, order.size() - pos));
    // Grow-only: tail steps shorter than span keep the pool at full size
    // (step_merged only reduces the first n buffers), so the per-batch
    // matrices really are reused across steps and epochs.
    if (step_grads_.size() < static_cast<std::size_t>(n)) {
      step_grads_.resize(static_cast<std::size_t>(n));
    }
    const int shards = std::clamp(cfg_.shards, 1, n);
    // Contiguous shard partition of the step's batches. Every batch owns an
    // isolated gradient buffer and an rng stream keyed by its *global*
    // position, so the partition shape (and thread scheduling) cannot leak
    // into the numbers — only into the wall clock.
    parallel_shards(shards, [&](int s) {
      const ObsSpan shard_span(cfg_.obs.trace, "shard", "train");
      const int lo = s * n / shards;
      const int hi = (s + 1) * n / shards;
      for (int b = lo; b < hi; ++b) {
        const BatchPlan::Item& item =
            plan.item(order[pos + static_cast<std::size_t>(b)]);
        LeafGradRedirect redirect(param_leaves_,
                                  step_grads_[static_cast<std::size_t>(b)]);
        const std::uint64_t global_batch =
            static_cast<std::uint64_t>(pos) + static_cast<std::uint64_t>(b);
        Rng drop(mix_seed(dropout_seed_ ^
                          ((static_cast<std::uint64_t>(epoch) + 1) << 32) ^
                          global_batch));
        Tape tape;
        const Var out =
            hooks_.forward(tape, item.batch().merged, item.features(), drop);
        tape.backward(hooks_.loss(tape, out, item.labels));
      }
    });
    // Deterministic barrier: per-batch buffers reduce in visit order.
    opt.step_merged(step_grads_, static_cast<std::size_t>(n));
  }
}

}  // namespace gnnhls
