// train/ subsystem tests: sharded-epoch determinism (shards=N bit-identical
// to shards=1), BatchPlan membership stability across epoch rotations, and
// FeatureCache hit semantics.
#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "core/predictor.h"
#include "support/parallel.h"
#include "train/batch_plan.h"
#include "train/feature_cache.h"
#include "train/trainer.h"

namespace gnnhls {
namespace {

std::vector<Sample> small_corpus(int n, std::uint64_t seed) {
  SyntheticDatasetConfig dcfg;
  dcfg.kind = GraphKind::kDfg;
  dcfg.num_graphs = n;
  dcfg.seed = seed;
  dcfg.progen.min_ops = 8;
  dcfg.progen.max_ops = 24;
  return build_synthetic_dataset(dcfg);
}

/// Restores the default global pool when a test resizes it.
struct PoolGuard {
  explicit PoolGuard(int threads) { ThreadPool::set_global_threads(threads); }
  ~PoolGuard() { ThreadPool::set_global_threads(0); }
};

// ----- sharded training determinism -----

TEST(ShardedTrainingTest, RegressorShardsAreBitIdentical) {
  PoolGuard pool(4);  // real workers so shards actually run concurrently
  const auto samples = small_corpus(40, 2024);
  const SplitIndices split =
      split_80_10_10(static_cast<int>(samples.size()), 9);

  ModelConfig mc;
  mc.kind = GnnKind::kGcn;
  mc.hidden = 16;
  mc.layers = 2;
  mc.dropout = 0.2F;  // exercises the per-(epoch, batch) dropout streams
  TrainConfig tc;
  tc.epochs = 5;
  tc.lr = 1e-2F;
  tc.seed = 11;
  tc.batch_size = 4;
  tc.grad_accum = 2;  // two batches merge into every Adam step

  tc.shards = 1;
  QorPredictor serial(Approach::kOffTheShelf, mc, tc);
  const double serial_val =
      serial.fit(samples, split, Metric::kLut, FitOptions{}).best_val;
  const std::vector<Matrix> serial_params =
      snapshot_parameters(serial.regressor());

  tc.shards = 4;
  QorPredictor sharded(Approach::kOffTheShelf, mc, tc);
  const double sharded_val =
      sharded.fit(samples, split, Metric::kLut, FitOptions{}).best_val;
  const std::vector<Matrix> sharded_params =
      snapshot_parameters(sharded.regressor());

  // Bit-identical: same best-validation MAPE, same final parameters.
  EXPECT_EQ(serial_val, sharded_val);
  ASSERT_EQ(serial_params.size(), sharded_params.size());
  for (std::size_t i = 0; i < serial_params.size(); ++i) {
    EXPECT_TRUE(serial_params[i] == sharded_params[i]) << "parameter " << i;
  }
  // And identical test-set behavior.
  EXPECT_EQ(serial.evaluate_mape(samples, split.test),
            sharded.evaluate_mape(samples, split.test));
}

TEST(ShardedTrainingTest, ClassifierShardsAreBitIdentical) {
  PoolGuard pool(3);
  const auto samples = small_corpus(32, 4711);
  const SplitIndices split =
      split_80_10_10(static_cast<int>(samples.size()), 5);

  ModelConfig mc;
  mc.kind = GnnKind::kGcn;
  mc.hidden = 12;
  mc.layers = 2;
  TrainConfig tc;
  tc.epochs = 4;
  tc.lr = 1e-2F;
  tc.seed = 3;
  tc.batch_size = 4;
  tc.grad_accum = 3;

  tc.shards = 1;
  NodeTypePredictor serial(mc, tc);
  const double serial_acc = serial.fit(samples, split, FitOptions{}).best_val;

  tc.shards = 3;
  NodeTypePredictor sharded(mc, tc);
  const double sharded_acc =
      sharded.fit(samples, split, FitOptions{}).best_val;

  EXPECT_EQ(serial_acc, sharded_acc);
  const auto a = snapshot_parameters(serial.classifier());
  const auto b = snapshot_parameters(sharded.classifier());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i] == b[i]) << "parameter " << i;
  }
}

TEST(ShardedTrainingTest, ShardCountBeyondBatchesIsClamped) {
  const auto samples = small_corpus(12, 77);
  const SplitIndices split =
      split_80_10_10(static_cast<int>(samples.size()), 1);
  ModelConfig mc;
  mc.kind = GnnKind::kGcn;
  mc.hidden = 8;
  mc.layers = 1;
  TrainConfig tc;
  tc.epochs = 2;
  tc.batch_size = 4;
  tc.grad_accum = 8;  // step span larger than the epoch's batch count
  tc.shards = 64;     // far more shards than batches
  QorPredictor predictor(Approach::kOffTheShelf, mc, tc);
  const FitReport report =
      predictor.fit(samples, split, Metric::kLut, FitOptions{});
  EXPECT_TRUE(std::isfinite(report.best_val));
}

// ----- FitReport -----

TEST(FitReportTest, FitReportCurveAndBestEpoch) {
  const auto samples = small_corpus(30, 515);
  const SplitIndices split =
      split_80_10_10(static_cast<int>(samples.size()), 2);
  ModelConfig mc;
  mc.kind = GnnKind::kGcn;
  mc.hidden = 12;
  mc.layers = 2;
  TrainConfig tc;
  tc.epochs = 5;
  tc.lr = 1e-2F;
  tc.batch_size = 4;
  QorPredictor p(Approach::kOffTheShelf, mc, tc);
  const FitReport report = p.fit(samples, split, Metric::kLut, FitOptions{});
  EXPECT_EQ(report.epochs_run, tc.epochs);
  EXPECT_GT(report.steps, 0);
  ASSERT_EQ(report.val_curve.size(), static_cast<std::size_t>(tc.epochs));
  ASSERT_GE(report.best_epoch, 0);
  ASSERT_LT(report.best_epoch, tc.epochs);
  EXPECT_EQ(report.best_val,
            *std::min_element(report.val_curve.begin(),
                              report.val_curve.end()));
  EXPECT_EQ(report.best_val,
            report.val_curve[static_cast<std::size_t>(report.best_epoch)]);
  // Best-epoch selection restored that checkpoint: deployed validation MAPE
  // is the best epoch's, not the final one's.
  EXPECT_EQ(p.evaluate_mape(samples, split.val), report.best_val);
}

TEST(FitReportTest, ClassifierFitReportSelectsHighestAccuracy) {
  const auto samples = small_corpus(24, 2222);
  const SplitIndices split =
      split_80_10_10(static_cast<int>(samples.size()), 6);
  ModelConfig mc;
  mc.kind = GnnKind::kGcn;
  mc.hidden = 8;
  mc.layers = 2;
  TrainConfig tc;
  tc.epochs = 3;
  tc.lr = 1e-2F;
  tc.batch_size = 4;
  NodeTypePredictor a(mc, tc);
  const FitReport report = a.fit(samples, split, FitOptions{});
  EXPECT_EQ(report.epochs_run, tc.epochs);
  ASSERT_EQ(report.val_curve.size(), static_cast<std::size_t>(tc.epochs));
  // Classifier selection runs the other direction: higher accuracy wins.
  ASSERT_GE(report.best_epoch, 0);
  EXPECT_EQ(report.best_val,
            *std::max_element(report.val_curve.begin(),
                              report.val_curve.end()));
  EXPECT_EQ(report.best_val,
            report.val_curve[static_cast<std::size_t>(report.best_epoch)]);
}

// ----- BatchPlan rotation -----

TEST(BatchPlanTest, MembershipFixedAcrossEpochRotations) {
  const auto samples = small_corpus(22, 909);
  std::vector<int> train_idx;
  for (int i = 0; i < static_cast<int>(samples.size()); ++i) {
    train_idx.push_back(i);
  }
  BatchPlan plan = BatchPlan::build(
      samples, train_idx, /*batch_size=*/4,
      [](const Sample& s) -> const Matrix& {
        return FeatureCache::global().features(s, Approach::kOffTheShelf);
      },
      [](const Sample& s) {
        return Matrix(1, 1,
                      encode_target(metric_of(s.truth, Metric::kLut),
                                    Metric::kLut));
      },
      Rng(42));
  ASSERT_TRUE(plan.batched());
  ASSERT_EQ(plan.num_batches(), 6);  // ceil(22 / 4)

  // Batches partition the training set exactly once.
  std::multiset<int> covered;
  for (int b = 0; b < plan.num_batches(); ++b) {
    const BatchPlan::Item& item = plan.item(b);
    EXPECT_EQ(item.batch().num_graphs(),
              static_cast<int>(item.members().size()));
    EXPECT_EQ(item.features().rows(), item.batch().num_nodes());
    EXPECT_EQ(item.labels.rows(), item.batch().num_graphs());
    covered.insert(item.members().begin(), item.members().end());
  }
  EXPECT_EQ(covered.size(), train_idx.size());
  EXPECT_TRUE(std::set<int>(covered.begin(), covered.end()).size() ==
              covered.size());

  // Epoch 0 is the build order; every later epoch is a permutation of the
  // same batch indices — membership never changes, only visit order.
  const std::vector<int> members0 = plan.item(0).members();
  const std::vector<int> epoch0 = plan.next_epoch_batch_order();
  std::vector<int> identity(static_cast<std::size_t>(plan.num_batches()));
  for (std::size_t i = 0; i < identity.size(); ++i) {
    identity[i] = static_cast<int>(i);
  }
  EXPECT_EQ(epoch0, identity);
  bool reshuffled = false;
  for (int epoch = 1; epoch <= 5; ++epoch) {
    std::vector<int> order = plan.next_epoch_batch_order();
    std::vector<int> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, identity);  // a permutation of the fixed batches
    if (order != identity) reshuffled = true;
    EXPECT_EQ(plan.item(0).members(), members0);
  }
  EXPECT_TRUE(reshuffled);  // rotation shuffles order (seed 42, 6 batches)
}

// ----- FeatureCache -----

TEST(FeatureCacheTest, HitReturnsSameMatrixAsColdBuild) {
  const auto samples = small_corpus(2, 31337);
  FeatureCache& cache = FeatureCache::global();

  const std::uint64_t misses_before = cache.misses();
  const Matrix& cached =
      cache.features(samples[0], Approach::kOffTheShelf);
  EXPECT_EQ(cache.misses(), misses_before + 1);

  // Cold build and cached entry are the same tensor, bit for bit.
  const Matrix direct =
      InputFeatureBuilder::build(samples[0].graph(), Approach::kOffTheShelf);
  EXPECT_TRUE(cached == direct);

  // A hit returns the identical object, not a rebuild.
  const std::uint64_t hits_before = cache.hits();
  const Matrix& again =
      cache.features(samples[0], Approach::kOffTheShelf);
  EXPECT_EQ(&again, &cached);
  EXPECT_EQ(cache.hits(), hits_before + 1);

  // Different approach and different sample are distinct entries.
  const Matrix& rich = cache.features(samples[0], Approach::kKnowledgeRich);
  EXPECT_NE(&rich, &cached);
  const Matrix& other =
      cache.features(samples[1], Approach::kOffTheShelf);
  EXPECT_NE(&other, &cached);

  // Node-type labels are cached under their own key.
  const Matrix& labels = cache.node_type_labels(samples[0]);
  EXPECT_TRUE(labels ==
              InputFeatureBuilder::node_type_labels(samples[0].graph()));
  EXPECT_EQ(&cache.node_type_labels(samples[0]), &labels);
}

TEST(FeatureCacheTest, SampleUidsAreUniquePerConstruction) {
  const auto a = small_corpus(3, 1);
  std::set<std::uint64_t> uids;
  for (const Sample& s : a) uids.insert(s.uid);
  EXPECT_EQ(uids.size(), a.size());
  // Copies denote the same sample and keep its identity.
  const Sample copy = a[0];
  EXPECT_EQ(copy.uid, a[0].uid);
}

// ----- LeafGradRedirect -----

TEST(LeafGradRedirectTest, RedirectsLeafGradsAndLeavesSharedGradUntouched) {
  Matrix w(2, 2);
  w(0, 0) = 1.0F;
  w(0, 1) = -2.0F;
  w(1, 0) = 0.5F;
  w(1, 1) = 3.0F;
  const Var leaf = make_leaf(w, true);

  // Reference: plain backward accumulates into the leaf's own grad.
  {
    Tape tape;
    const Var x = tape.leaf(Matrix(1, 2, 1.0F));
    tape.backward(tape.sum_all(tape.matmul(x, leaf)));
  }
  const Matrix direct = leaf.grad();
  leaf.node()->grad.fill(0.0F);

  // Redirected: grads land in the sink; the shared grad stays zero.
  std::vector<Matrix> sinks;
  {
    LeafGradRedirect redirect({leaf}, sinks);
    Tape tape;
    const Var x = tape.leaf(Matrix(1, 2, 1.0F));
    tape.backward(tape.sum_all(tape.matmul(x, leaf)));
  }
  ASSERT_EQ(sinks.size(), 1U);
  EXPECT_TRUE(sinks[0] == direct);
  EXPECT_EQ(leaf.grad().squared_norm(), 0.0);

  // After the scope ends, accumulation reaches the leaf again.
  {
    Tape tape;
    const Var x = tape.leaf(Matrix(1, 2, 1.0F));
    tape.backward(tape.sum_all(tape.matmul(x, leaf)));
  }
  EXPECT_TRUE(leaf.grad() == direct);
}

}  // namespace
}  // namespace gnnhls
