// The training-loop engine implementing the paper's recipe (§5.1): Adam, a
// fixed epoch budget, minibatch gradient accumulation, step learning-rate
// decay, best-validation-epoch selection delegated to the caller.
//
// One Trainer serves every fit loop in the library (QoR regressor, the
// hierarchical approach's node classifier, the standalone NodeTypePredictor)
// through two hooks: forward (model tape construction over a graph view) and
// loss. Data comes from a BatchPlan; epochs in batched mode are *sharded*:
//
//   * each optimizer step spans grad_accum consecutive batches of the
//     epoch's visit order;
//   * the step's batches are partitioned contiguously across `shards`
//     workers on the global ThreadPool; every batch runs its own tape with
//     gradients accumulated into a batch-local buffer (LeafGradRedirect), so
//     concurrent tapes never touch the shared parameter grads;
//   * at the step barrier the per-batch buffers are reduced into the
//     parameters in fixed batch order and one Adam step is applied
//     (Adam::step_merged).
//
// Because the reduction order, the batch membership/visit order, and every
// per-batch dropout stream are functions of (config, epoch, batch index)
// only — never of thread scheduling — training with shards=N is
// bit-identical to shards=1. `shards` is purely an execution-width knob.
#pragma once

#include <cstdint>
#include <functional>

#include "nn/adam.h"
#include "obs/obs_config.h"
#include "train/batch_plan.h"
#include "train/fit_options.h"

namespace gnnhls {

struct TrainConfig {
  int epochs = 30;
  float lr = 3e-3F;
  float weight_decay = 1e-5F;
  float grad_clip = 5.0F;
  int batch_graphs = 8;  // gradient-accumulation window (batch_size==1 path)
  /// Graphs per forward/backward pass. 1 keeps the legacy one-graph-per-tape
  /// gradient-accumulation loop (bit-for-bit the pre-batching trajectory);
  /// >1 disjoint-unions that many graphs into one GraphBatch per SGD step
  /// (one tape, segment readout, one optimizer step per batch). Loss
  /// semantics differ between the modes. Regressor: the legacy loop sums
  /// batch_graphs per-graph MSEs per step while the batched loss is the
  /// per-batch mean — a constant 1/batch_size scale Adam's update direction
  /// is invariant to, so trajectories match closely (grad_clip and lr
  /// sweeps are calibrated against the mean convention). Classifier: the
  /// batched BCE averages over all *nodes* in the stacked batch (standard
  /// node-level batching), so larger graphs carry proportionally more
  /// gradient weight than in the per-graph loop, where each graph's mean
  /// contributed equally — not a constant rescale on node-count-
  /// heterogeneous corpora.
  int batch_size = 1;
  /// Batched mode only: mini-batches per optimizer step. Their gradients
  /// are summed (in visit order) before one Adam update, so >1 enlarges the
  /// effective batch — and is what gives `shards` parallel work between
  /// optimizer barriers. Semantics-affecting, unlike `shards`.
  int grad_accum = 1;
  /// Data-parallel worker shards computing a step's batch gradients
  /// concurrently on the global ThreadPool. Execution-only: any value
  /// reproduces shards=1 bit-for-bit (see the file comment); values are
  /// clamped to the step's batch count. Ignored by the legacy
  /// batch_size<=1 path, which is defined as a serial trajectory.
  int shards = 1;
  std::uint64_t seed = 1;
  /// Observability knobs (obs/obs_config.h): obs.trace emits epoch/shard
  /// spans into the process-wide TraceCollector when it is active.
  /// Execution-only — the training trajectory is bit-identical either way.
  ObsConfig obs;
};

/// Step learning-rate decay: full rate for the first 60% of epochs, then
/// 0.3x, then 0.1x for the last 15% (stabilizes the best-epoch selection).
float lr_at_epoch(float base_lr, int epoch, int total_epochs);

/// Runs the fixed-epoch training loop for one model over one BatchPlan.
/// One Trainer per fit: construct, call fit() once, discard. fit() is not
/// reentrant and must not run concurrently with anything that reads the
/// model's parameters (the serving path takes the predictor AFTER fit has
/// returned — see serve/scheduler.h). Epoch work may fan out over the
/// global ThreadPool, but the determinism contract above makes the result
/// independent of that pool's width.
class Trainer {
 public:
  /// Model-specific callbacks. Both hooks may be invoked concurrently from
  /// shard workers (one tape per batch), so they must be pure with respect
  /// to shared state: read the model, build onto the passed tape, touch
  /// nothing else. Each invocation's rng is an independent per-(epoch,
  /// batch) stream owned by the caller of the hook.
  struct Hooks {
    /// Builds the model's tape output over a graph view (a single sample's
    /// tensors in legacy mode, a GraphBatch::merged union in batched mode)
    /// with training-mode regularization driven by rng.
    std::function<Var(Tape&, const GraphTensors&, const Matrix& features,
                      Rng& rng)>
        forward;
    /// Builds the scalar loss for the view's stacked labels.
    std::function<Var(Tape&, const Var& out, const Matrix& labels)> loss;
  };

  /// dropout_seed seeds the legacy path's shared sequential dropout stream
  /// (bit-compat with the old fit loops) and derives the independent
  /// per-(epoch, batch) streams of the batched path.
  Trainer(Module& model, TrainConfig cfg, Hooks hooks,
          std::uint64_t dropout_seed);

  /// Runs the TrainConfig::epochs budget over the plan. on_epoch_end(epoch)
  /// fires after each epoch's optimizer steps — validation, model selection
  /// and early snapshots live with the caller, which fills FitReport's
  /// validation fields; the Trainer fills epochs_run / steps. Model init,
  /// plan construction and dropout_seed were resolved by the owner before
  /// this call.
  FitReport fit(BatchPlan& plan, const FitOptions& opts,
                const std::function<void(int)>& on_epoch_end);

 private:
  void run_legacy_epoch(BatchPlan& plan, Adam& opt, Rng& dropout_rng);
  void run_batched_epoch(BatchPlan& plan, Adam& opt, int epoch);

  Module& model_;
  TrainConfig cfg_;
  Hooks hooks_;
  std::uint64_t dropout_seed_;
  std::vector<Var> param_leaves_;
  /// Per-batch gradient buffers, reused across steps and epochs (shaped and
  /// zeroed by each LeafGradRedirect scope).
  std::vector<std::vector<Matrix>> step_grads_;
};

}  // namespace gnnhls
