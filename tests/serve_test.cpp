// serve/ subsystem tests: the batched predict_many entry point's
// determinism contract (bit-identical to sequential QorPredictor::predict),
// and a single-model ServingScheduler used as a plain micro-batcher (one
// worker, static window): the exact window timeout of a lone request, the
// zero window, idle shutdown, blocking predict_many and concurrent
// submitters. Multi-model scheduling, admission, shedding and drain live in
// scheduler_test.cpp.
#include <atomic>
#include <future>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/scheduler.h"

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

/// One quickly-fitted predictor shared by every test: serving is inference
/// only, so a few epochs on a small corpus exercise the full contract.
struct ServeFixture {
  std::vector<Sample> samples = small_corpus(36, 515);
  SplitIndices split = split_80_10_10(static_cast<int>(samples.size()), 3);
  QorPredictor predictor;

  ServeFixture() : predictor(Approach::kOffTheShelf, model_cfg(), train_cfg()) {
    predictor.fit(samples, split, Metric::kLut, FitOptions{});
  }

  static ModelConfig model_cfg() {
    ModelConfig mc;
    mc.kind = GnnKind::kRgcn;
    mc.hidden = 16;
    mc.layers = 2;
    return mc;
  }
  static TrainConfig train_cfg() {
    TrainConfig tc;
    tc.epochs = 3;
    tc.lr = 1e-2F;
    tc.batch_size = 4;
    tc.seed = 5;
    return tc;
  }
};

ServeFixture& fixture() {
  static ServeFixture* f = new ServeFixture();  // fit once per test binary
  return *f;
}

// ----- core batched entry point -----

TEST(PredictManyTest, BitIdenticalToSequentialPredict) {
  ServeFixture& fx = fixture();
  std::vector<const Sample*> parts;
  for (const Sample& s : fx.samples) parts.push_back(&s);
  const std::vector<double> batched = fx.predictor.predict_many(parts);
  ASSERT_EQ(batched.size(), fx.samples.size());
  for (std::size_t i = 0; i < fx.samples.size(); ++i) {
    EXPECT_EQ(batched[i], fx.predictor.predict(fx.samples[i])) << "sample "
                                                               << i;
  }
}

TEST(PredictManyTest, EmptyInputReturnsEmpty) {
  EXPECT_TRUE(fixture().predictor.predict_many({}).empty());
}

TEST(PredictManyTest, HierarchicalPathBitIdentical) {
  // The -I self-inferred path owns per-sample classifier-annotated feature
  // matrices instead of reading the FeatureCache; the batched union must
  // still reproduce the solo forward bit-for-bit.
  const auto samples = small_corpus(24, 929);
  const SplitIndices split =
      split_80_10_10(static_cast<int>(samples.size()), 3);
  TrainConfig tc = ServeFixture::train_cfg();
  tc.epochs = 2;
  QorPredictor predictor(Approach::kKnowledgeInfused,
                         ServeFixture::model_cfg(), tc);
  predictor.fit(samples, split, Metric::kFf, FitOptions{});
  std::vector<const Sample*> parts;
  for (int i : split.test) parts.push_back(&samples[static_cast<size_t>(i)]);
  const std::vector<double> batched = predictor.predict_many(parts);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    EXPECT_EQ(batched[i], predictor.predict(*parts[i]));
  }
}

// ----- single-model ServingScheduler (one worker, static window) -----

/// The plain micro-batcher: one model, one worker, a static window, so a
/// lone request waits exactly `window_us` before its batch closes.
SchedulerConfig single_model_cfg(int max_batch, std::int64_t window_us) {
  SchedulerConfig sc;
  sc.workers = 1;
  sc.max_batch = max_batch;
  sc.batch_window_us = window_us;
  sc.adaptive_window = false;
  return sc;
}

TEST(SingleModelServingTest, LoneRequestFlushesOnWindowTimeout) {
  ServeFixture& fx = fixture();
  // max_batch far above the traffic: only the timer can flush.
  ServingScheduler sched({&fx.predictor}, single_model_cfg(64, 100));
  std::future<double> f = sched.submit(0, fx.samples[0]).future;
  EXPECT_EQ(f.get(), fx.predictor.predict(fx.samples[0]));
  const SchedStats st = sched.stats();
  EXPECT_EQ(st.batches, 1U);
  EXPECT_EQ(st.flush_timeout, 1U);
  EXPECT_EQ(st.max_batch_seen, 1);
  EXPECT_EQ(st.window_us, 100);  // static: the window never moved
}

TEST(SingleModelServingTest, ZeroWindowServesImmediately) {
  ServeFixture& fx = fixture();
  // "Never wait": the worker serves whatever is queued the moment it looks.
  ServingScheduler sched({&fx.predictor}, single_model_cfg(8, 0));
  for (int round = 0; round < 3; ++round) {
    std::future<double> f = sched.submit(0, fx.samples[0]).future;
    EXPECT_EQ(f.get(), fx.predictor.predict(fx.samples[0]));
  }
  EXPECT_EQ(sched.stats().completed, 3U);
}

TEST(SingleModelServingTest, IdleShutdownServesNothing) {
  ServeFixture& fx = fixture();
  ServingScheduler sched({&fx.predictor}, single_model_cfg(8, 200));
  sched.shutdown();  // no traffic: the worker must exit without a forward
  const SchedStats st = sched.stats();
  EXPECT_EQ(st.submitted, 0U);
  EXPECT_EQ(st.batches, 0U);
  EXPECT_EQ(st.avg_batch(), 0.0);
}

TEST(SingleModelServingTest, ConcurrentSubmittersAllBitIdentical) {
  ServeFixture& fx = fixture();
  ServingScheduler sched({&fx.predictor}, single_model_cfg(8, 300));

  constexpr int kThreads = 4;
  constexpr int kPerThread = 12;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int r = 0; r < kPerThread; ++r) {
        const Sample& s =
            fx.samples[static_cast<std::size_t>((t * 7 + r * 3) %
                                                fx.samples.size())];
        if (sched.submit(0, s).future.get() != fx.predictor.predict(s)) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();
  EXPECT_EQ(mismatches.load(), 0);
  const SchedStats st = sched.stats();
  EXPECT_EQ(st.submitted, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(st.completed, st.submitted);
  EXPECT_LE(st.max_batch_seen, 8);
  EXPECT_EQ(st.flush_full + st.flush_timeout + st.flush_drain, st.batches);
}

TEST(SingleModelServingTest, BlockingPredictManyMatchesSequential) {
  ServeFixture& fx = fixture();
  ServingScheduler sched({&fx.predictor}, single_model_cfg(8, 200));
  std::vector<const Sample*> parts;
  for (int i : fx.split.test) {
    parts.push_back(&fx.samples[static_cast<std::size_t>(i)]);
  }
  const std::vector<double> served = sched.predict_many(0, parts);
  ASSERT_EQ(served.size(), parts.size());
  for (std::size_t i = 0; i < parts.size(); ++i) {
    EXPECT_EQ(served[i], fx.predictor.predict(*parts[i]));
  }
  EXPECT_TRUE(sched.predict_many(0, {}).empty());
}

}  // namespace
}  // namespace gnnhls
