// Per-fit training data loader: a rotation of fixed mini-batches.
//
// The pre-refactor fit loops reshuffled the sample order every epoch and
// re-chunked it into GraphBatch unions, so union assembly and feature
// stacking were paid O(epochs) times. A BatchPlan fixes batch *membership*
// once per fit (from the first shuffle — exactly the chunks the first epoch
// would have seen) and pre-builds every union with its stacked feature and
// label matrices; epochs then reshuffle only the *order* in which the fixed
// batches are visited. Randomized visit order preserves SGD's decorrelation
// benefit while amortizing assembly entirely — the multi-epoch batch reuse
// the ROADMAP calls out.
//
// Cross-fit sharing: membership is a pure function of (ordered sample uids,
// batch_size, order seed), and a batch's expensive half — the GraphBatch
// union plus the stacked feature matrix — is additionally a pure function of
// the feature variant. That immutable half lives in a BatchCore; plans built
// with a non-empty share_key route their cores through the process-wide
// BatchCoreCache, so same-split fits (e.g. the same corpus fitted per
// metric, or per-epoch validation evaluation) reuse one assembly instead of
// rebuilding identical unions. Labels stay per-plan (they encode the fitted
// metric). Cache hits change nothing numerically: the membership shuffle
// still runs (same Rng draw stream), only the assembly is skipped.
//
// In legacy mode (batch_size <= 1) the plan degrades to a per-sample view
// with the persistent order vector the old loop used, reshuffled with the
// same Rng draws, so single-graph gradient-accumulation training stays
// bit-for-bit on the pre-batching trajectory.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "dataset/dataset.h"
#include "gnn/graph_batch.h"
#include "support/rng.h"
#include "tensor/matrix.h"

namespace gnnhls {

/// The immutable, shareable half of one mini-batch: fixed membership, the
/// members' disjoint union, and their stacked input features.
struct BatchCore {
  std::vector<int> members;  // sample indices, fixed for the fit
  GraphBatch batch;          // disjoint union of the members
  Matrix features;           // stacked per-node input features
};

using BatchCorePtr = std::shared_ptr<const BatchCore>;

/// Process-wide cache of BatchCore sequences keyed by BatchPlan::share_key
/// strings. Thread-safe; the builder runs under the cache lock, so
/// concurrent lookups of the same key build once.
class BatchCoreCache {
 public:
  static BatchCoreCache& global();

  using BuildFn = std::function<std::vector<BatchCorePtr>()>;
  /// Returns the core sequence for `key`, invoking `build` on first use.
  std::vector<BatchCorePtr> lookup(const std::string& key,
                                   const BuildFn& build);

  std::uint64_t hits() const;
  std::uint64_t misses() const;
  void clear();

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::vector<BatchCorePtr>> map_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

class BatchPlan {
 public:
  /// One mini-batch of the rotation (batched mode): a shared immutable core
  /// plus this plan's stacked labels.
  struct Item {
    BatchCorePtr core;
    Matrix labels;  // stacked labels ([k,1] targets / [n,3] bits)

    const std::vector<int>& members() const { return core->members; }
    const GraphBatch& batch() const { return core->batch; }
    const Matrix& features() const { return core->features; }
  };

  /// Returns a stable reference to sample s's input features (the
  /// FeatureCache hands these out; the plan never copies them per epoch).
  using FeatureFn = std::function<const Matrix&(const Sample&)>;
  /// Returns sample s's label rows: a [1,1] encoded regression target or a
  /// [num_nodes, k] node-label matrix.
  using LabelFn = std::function<Matrix(const Sample&)>;

  /// Builds the rotation over samples[train_idx]. order_rng drives both the
  /// membership-fixing shuffle (batched mode) and the per-epoch reshuffles;
  /// pass the same seed the old fit loop used and epoch 0 reproduces its
  /// first epoch exactly. Union assembly fans out on the global thread pool.
  /// A non-empty share_key (see the share_key helper) routes the cores
  /// through the BatchCoreCache: the key must pin every input the cores
  /// depend on — uid sequence, batch size, order seed, feature variant.
  static BatchPlan build(const std::vector<Sample>& samples,
                         const std::vector<int>& train_idx, int batch_size,
                         const FeatureFn& feature_of, const LabelFn& label_of,
                         Rng order_rng, const std::string& share_key = {});

  /// Evaluation-side plan: consecutive chunks of `idx` in input order (no
  /// shuffle, no labels, no rotation), sharing the same core cache. Used by
  /// sharded evaluate_mape; requires batch_size >= 2.
  static BatchPlan build_eval(const std::vector<Sample>& samples,
                              const std::vector<int>& idx, int batch_size,
                              const FeatureFn& feature_of,
                              const std::string& share_key = {});

  /// Composes a BatchCoreCache key. `tag` must encode the feature variant
  /// (and train/eval kind), order_seed the membership shuffle seed (0 for
  /// eval plans), and idx the sample subset; the samples' uids pin corpus
  /// identity.
  static std::string share_key(const std::string& tag,
                               std::uint64_t order_seed, int batch_size,
                               const std::vector<Sample>& samples,
                               const std::vector<int>& idx);

  bool batched() const { return batch_size_ > 1; }
  int batch_size() const { return batch_size_; }
  int num_batches() const { return static_cast<int>(items_.size()); }
  const Item& item(int b) const {
    return items_[static_cast<std::size_t>(b)];
  }

  /// Batched mode: advances to the next epoch and returns its batch visit
  /// order (a permutation of [0, num_batches)). The first call returns the
  /// build order; later calls reshuffle order only — membership never
  /// changes.
  const std::vector<int>& next_epoch_batch_order();

  /// Legacy mode: reshuffles and returns the persistent sample order, one
  /// call per epoch (bit-for-bit the old loop's Rng draws).
  const std::vector<int>& next_epoch_sample_order();

  // --- legacy-mode per-sample views (valid for train_idx members only) ---
  const GraphTensors& sample_tensors(int sample_idx) const;
  const Matrix& sample_features(int sample_idx) const;
  const Matrix& sample_labels(int sample_idx) const;

 private:
  BatchPlan(Rng order_rng) : order_rng_(order_rng) {}

  const std::vector<Sample>* samples_ = nullptr;
  int batch_size_ = 1;
  Rng order_rng_;

  // batched mode
  std::vector<Item> items_;
  std::vector<int> batch_order_;
  bool first_epoch_served_ = false;

  // legacy mode
  std::vector<int> sample_order_;
  std::vector<const Matrix*> sample_features_;  // indexed by sample position
  std::vector<Matrix> sample_labels_;           // indexed by sample position
};

}  // namespace gnnhls
