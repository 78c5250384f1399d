#include "train/batch_plan.h"

#include <numeric>
#include <utility>

#include "support/parallel.h"

namespace gnnhls {

namespace {

/// Assembles one core sequence for the given membership chunks.
std::vector<BatchCorePtr> assemble_cores(
    const std::vector<Sample>& samples,
    const std::vector<std::vector<int>>& chunks,
    const BatchPlan::FeatureFn& feature_of) {
  // Prefetch features serially: feature_of typically fills the shared
  // FeatureCache, and a deterministic fill order keeps hit/miss accounting
  // reproducible for tests regardless of pool width.
  std::vector<const Matrix*> feats(samples.size(), nullptr);
  for (const std::vector<int>& chunk : chunks) {
    for (int i : chunk) {
      if (feats[static_cast<std::size_t>(i)] == nullptr) {
        feats[static_cast<std::size_t>(i)] =
            &feature_of(samples[static_cast<std::size_t>(i)]);
      }
    }
  }
  std::vector<std::shared_ptr<BatchCore>> cores(chunks.size());
  for (std::size_t b = 0; b < chunks.size(); ++b) {
    cores[b] = std::make_shared<BatchCore>();
    cores[b]->members = chunks[b];
  }
  // The pure union/stack assembly fans out across batches; each shard fills
  // its own pre-built core, so the result is pool-width independent.
  parallel_shards(static_cast<int>(chunks.size()), [&](int b) {
    BatchCore& core = *cores[static_cast<std::size_t>(b)];
    std::vector<const GraphTensors*> parts;
    std::vector<const Matrix*> fparts;
    parts.reserve(core.members.size());
    fparts.reserve(core.members.size());
    for (int i : core.members) {
      parts.push_back(&samples[static_cast<std::size_t>(i)].tensors);
      fparts.push_back(feats[static_cast<std::size_t>(i)]);
    }
    core.batch = GraphBatch::build(parts);
    core.features = GraphBatch::stack_features(fparts);
  });
  return {cores.begin(), cores.end()};
}

/// Consecutive chunks of `order`, batch_size per chunk (last one shorter).
std::vector<std::vector<int>> chunk_membership(const std::vector<int>& order,
                                               int batch_size) {
  const std::size_t bs = static_cast<std::size_t>(batch_size);
  std::vector<std::vector<int>> chunks((order.size() + bs - 1) / bs);
  for (std::size_t pos = 0, b = 0; pos < order.size(); pos += bs, ++b) {
    const std::size_t end = std::min(pos + bs, order.size());
    chunks[b].assign(order.begin() + static_cast<long>(pos),
                     order.begin() + static_cast<long>(end));
  }
  return chunks;
}

std::vector<BatchCorePtr> cores_for(
    const std::vector<Sample>& samples,
    const std::vector<std::vector<int>>& chunks,
    const BatchPlan::FeatureFn& feature_of, const std::string& share_key) {
  if (share_key.empty()) return assemble_cores(samples, chunks, feature_of);
  return BatchCoreCache::global().lookup(share_key, [&] {
    return assemble_cores(samples, chunks, feature_of);
  });
}

}  // namespace

// ----- BatchCoreCache -----

BatchCoreCache& BatchCoreCache::global() {
  static BatchCoreCache* cache = new BatchCoreCache();  // leaked on purpose
  return *cache;
}

std::vector<BatchCorePtr> BatchCoreCache::lookup(const std::string& key,
                                                 const BuildFn& build) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it != map_.end()) {
    ++hits_;
    return it->second;
  }
  ++misses_;
  std::vector<BatchCorePtr> cores = build();
  map_.emplace(key, cores);
  return cores;
}

std::uint64_t BatchCoreCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

std::uint64_t BatchCoreCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

void BatchCoreCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
}

// ----- BatchPlan -----

std::string BatchPlan::share_key(const std::string& tag,
                                 std::uint64_t order_seed, int batch_size,
                                 const std::vector<Sample>& samples,
                                 const std::vector<int>& idx) {
  std::string key = tag;
  key += '|';
  key += std::to_string(order_seed);
  key += '|';
  key += std::to_string(batch_size);
  for (int i : idx) {
    key += '|';
    key += std::to_string(samples[static_cast<std::size_t>(i)].uid);
  }
  return key;
}

BatchPlan BatchPlan::build(const std::vector<Sample>& samples,
                           const std::vector<int>& train_idx, int batch_size,
                           const FeatureFn& feature_of, const LabelFn& label_of,
                           Rng order_rng, const std::string& share_key) {
  GNNHLS_CHECK(!train_idx.empty(), "BatchPlan: empty training set");
  BatchPlan plan(order_rng);
  plan.samples_ = &samples;
  plan.batch_size_ = batch_size;

  if (batch_size <= 1) {
    // Legacy per-sample view; the epoch loop shuffles sample_order_ with
    // exactly the draws the old fit loop made.
    plan.sample_order_ = train_idx;
    plan.sample_features_.assign(samples.size(), nullptr);
    plan.sample_labels_.resize(samples.size());
    for (int i : train_idx) {
      plan.sample_features_[static_cast<std::size_t>(i)] =
          &feature_of(samples[static_cast<std::size_t>(i)]);
    }
    for (int i : train_idx) {
      plan.sample_labels_[static_cast<std::size_t>(i)] =
          label_of(samples[static_cast<std::size_t>(i)]);
    }
    return plan;
  }

  // Fix membership from one shuffle — the chunks the old loop's first epoch
  // would have produced. The shuffle always runs (also on a core-cache hit)
  // so the plan's Rng stream is independent of cache state.
  std::vector<int> order = train_idx;
  plan.order_rng_.shuffle(order);
  const std::vector<std::vector<int>> chunks =
      chunk_membership(order, batch_size);
  const std::vector<BatchCorePtr> cores =
      cores_for(samples, chunks, feature_of, share_key);
  GNNHLS_CHECK_EQ(cores.size(), chunks.size(), "BatchPlan: core count");

  // Per-plan labels: built serially (label_of may hit shared caches).
  std::vector<Matrix> labels(samples.size());
  for (int i : train_idx) {
    labels[static_cast<std::size_t>(i)] =
        label_of(samples[static_cast<std::size_t>(i)]);
  }
  plan.items_.resize(chunks.size());
  for (std::size_t b = 0; b < chunks.size(); ++b) {
#ifndef NDEBUG
    // A stale share_key (wrong seed / uid set) would silently train on the
    // wrong unions; membership is cheap to verify.
    GNNHLS_CHECK(cores[b]->members == chunks[b],
                 "BatchPlan: cached core membership mismatch (bad share_key)");
#endif
    Item& item = plan.items_[b];
    item.core = cores[b];
    std::vector<const Matrix*> lparts;
    lparts.reserve(chunks[b].size());
    for (int i : chunks[b]) {
      lparts.push_back(&labels[static_cast<std::size_t>(i)]);
    }
    item.labels = GraphBatch::stack_features(lparts);
  }

  plan.batch_order_.resize(plan.items_.size());
  std::iota(plan.batch_order_.begin(), plan.batch_order_.end(), 0);
  return plan;
}

BatchPlan BatchPlan::build_eval(const std::vector<Sample>& samples,
                                const std::vector<int>& idx, int batch_size,
                                const FeatureFn& feature_of,
                                const std::string& share_key) {
  GNNHLS_CHECK(!idx.empty(), "BatchPlan: empty evaluation set");
  GNNHLS_CHECK(batch_size >= 2, "build_eval: needs batched mode");
  BatchPlan plan{Rng(0)};  // eval plans never draw from the rotation rng
  plan.samples_ = &samples;
  plan.batch_size_ = batch_size;
  const std::vector<std::vector<int>> chunks =
      chunk_membership(idx, batch_size);
  const std::vector<BatchCorePtr> cores =
      cores_for(samples, chunks, feature_of, share_key);
  GNNHLS_CHECK_EQ(cores.size(), chunks.size(), "build_eval: core count");
  plan.items_.resize(chunks.size());
  for (std::size_t b = 0; b < chunks.size(); ++b) {
#ifndef NDEBUG
    GNNHLS_CHECK(cores[b]->members == chunks[b],
                 "build_eval: cached core membership mismatch (bad share_key)");
#endif
    plan.items_[b].core = cores[b];
  }
  plan.batch_order_.resize(plan.items_.size());
  std::iota(plan.batch_order_.begin(), plan.batch_order_.end(), 0);
  return plan;
}

const std::vector<int>& BatchPlan::next_epoch_batch_order() {
  GNNHLS_CHECK(batched(), "next_epoch_batch_order: legacy-mode plan");
  if (!first_epoch_served_) {
    // Epoch 0 visits the build order — together with membership fixing this
    // reproduces the old loop's first epoch exactly.
    first_epoch_served_ = true;
    return batch_order_;
  }
  order_rng_.shuffle(batch_order_);
  return batch_order_;
}

const std::vector<int>& BatchPlan::next_epoch_sample_order() {
  GNNHLS_CHECK(!batched(), "next_epoch_sample_order: batched-mode plan");
  order_rng_.shuffle(sample_order_);
  return sample_order_;
}

const GraphTensors& BatchPlan::sample_tensors(int sample_idx) const {
  return (*samples_)[static_cast<std::size_t>(sample_idx)].tensors;
}

const Matrix& BatchPlan::sample_features(int sample_idx) const {
  const Matrix* f = sample_features_[static_cast<std::size_t>(sample_idx)];
  GNNHLS_CHECK(f != nullptr, "sample_features: index not in training set");
  return *f;
}

const Matrix& BatchPlan::sample_labels(int sample_idx) const {
  return sample_labels_[static_cast<std::size_t>(sample_idx)];
}

}  // namespace gnnhls
