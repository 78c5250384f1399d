// dse/ subsystem tests: Pareto-front correctness on hand-built dominance
// cases, deterministic design-space enumeration, and the explorer
// determinism contract — results bit-identical across thread-pool widths.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "dse/explorer.h"
#include "suites/variants.h"
#include "support/parallel.h"
#include "train/feature_cache.h"

namespace gnnhls {
namespace {

// ----- pareto.h -----

TEST(ParetoTest, DominatesIsStrict) {
  EXPECT_TRUE(dominates({1.0, 1.0}, {2.0, 2.0}));
  EXPECT_TRUE(dominates({1.0, 2.0}, {1.0, 3.0}));
  EXPECT_FALSE(dominates({1.0, 1.0}, {1.0, 1.0}));  // equal: no dominance
  EXPECT_FALSE(dominates({0.0, 3.0}, {3.0, 0.0}));  // trade-off
  EXPECT_THROW(dominates({1.0}, {1.0, 2.0}), std::invalid_argument);
}

TEST(ParetoTest, HandBuiltFront) {
  // 1 is dominated by 0; 4 duplicates 0 (tie-break keeps the first).
  const std::vector<std::vector<double>> points = {
      {1.0, 1.0}, {2.0, 2.0}, {0.0, 3.0}, {3.0, 0.0}, {1.0, 1.0}};
  EXPECT_EQ(pareto_front(points), (std::vector<int>{0, 2, 3}));
}

TEST(ParetoTest, AllEqualKeepsFirstOnly) {
  const std::vector<std::vector<double>> points = {
      {5.0, 5.0}, {5.0, 5.0}, {5.0, 5.0}};
  EXPECT_EQ(pareto_front(points), (std::vector<int>{0}));
}

TEST(ParetoTest, SingleAxisIsArgmin) {
  const std::vector<std::vector<double>> points = {{3.0}, {1.0}, {2.0}, {1.0}};
  EXPECT_EQ(pareto_front(points), (std::vector<int>{1}));
}

TEST(ParetoTest, EmptyAndSingleton) {
  EXPECT_TRUE(pareto_front({}).empty());
  EXPECT_EQ(pareto_front({{7.0, 7.0}}), (std::vector<int>{0}));
}

// ----- design_space.h -----

TEST(DesignSpaceTest, DeterministicEnumeration) {
  const DesignSpace space = make_kernel_design_space("gemm");
  EXPECT_EQ(space.size(), 12u);  // 4 unroll x 3 bitwidth x 1 clock x 1 unc
  const std::vector<DesignPoint> a = space.enumerate();
  const std::vector<DesignPoint> b = space.enumerate();
  ASSERT_EQ(a.size(), space.size());
  ASSERT_EQ(b.size(), space.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, static_cast<int>(i));
    EXPECT_EQ(a[i].label(), b[i].label());
    EXPECT_EQ(a[i].unroll, b[i].unroll);
    EXPECT_EQ(a[i].bitwidth, b[i].bitwidth);
    EXPECT_EQ(a[i].hls.clock_ns, b[i].hls.clock_ns);
    EXPECT_EQ(a[i].hls.clock_uncertainty, b[i].hls.clock_uncertainty);
  }
  // Labels are unique: every point is a distinct knob combination.
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = i + 1; j < a.size(); ++j) {
      EXPECT_NE(a[i].label(), a[j].label());
    }
  }
}

TEST(DesignSpaceTest, GridGrowthIsDeterministic) {
  const KnobGrid g = grid_with_at_least(40);
  EXPECT_GE(g.size(), 40u);
  const KnobGrid h = grid_with_at_least(40);
  EXPECT_EQ(g.bitwidth, h.bitwidth);
  EXPECT_EQ(g.clock_ns, h.clock_ns);
  EXPECT_THROW(grid_with_at_least(100000), std::invalid_argument);
}

TEST(DesignSpaceTest, CandidateIsPredictionReadyWithoutHls) {
  const DesignSpace space = make_kernel_design_space("fir");
  const std::vector<DesignPoint> points = space.enumerate();
  const Sample s = space.lower_candidate(points[0]);
  EXPECT_GT(s.graph().num_nodes(), 0);
  EXPECT_EQ(s.tensors.num_nodes, s.graph().num_nodes());
  // No HLS flow has run: ground truth is untouched.
  for (Metric m : kAllMetrics) EXPECT_EQ(metric_of(s.truth, m), 0.0);
}

TEST(DesignSpaceTest, UnrollGrowsTheGraph) {
  const DesignSpace space = make_kernel_design_space("stencil");
  DesignPoint narrow, wide;
  narrow.unroll = 1;
  narrow.bitwidth = 16;
  wide.unroll = 8;
  wide.bitwidth = 16;
  EXPECT_LT(space.lower_candidate(narrow).graph().num_nodes(),
            space.lower_candidate(wide).graph().num_nodes());
}

TEST(DesignSpaceTest, UnknownKernelThrows) {
  EXPECT_THROW(make_kernel_design_space("fft"), std::invalid_argument);
  EXPECT_THROW(make_variant("fft", 1, 32), std::invalid_argument);
}

TEST(VariantTest, KnobValidation) {
  EXPECT_THROW(make_gemm_variant(3, 32), std::invalid_argument);  // 3 ∤ 64
  EXPECT_THROW(make_gemm_variant(0, 32), std::invalid_argument);
  EXPECT_THROW(make_fir_variant(1, 1), std::invalid_argument);
  for (const VariantKernel& k : dse_variant_kernels()) {
    const Function f = k.build(2, 16);
    EXPECT_TRUE(f.has_control_flow());  // all variants lower to CDFGs
    EXPECT_NE(f.name.find(k.name), std::string::npos);
  }
}

// ----- explorer.h -----

/// Restores the default pool on scope exit (mirrors train_test).
struct PoolGuard {
  explicit PoolGuard(int threads) { ThreadPool::set_global_threads(threads); }
  ~PoolGuard() { ThreadPool::set_global_threads(0); }
};

struct Trained {
  QorPredictor lut;
  QorPredictor ff;
};

/// One tiny LUT + FF predictor pair, trained once and shared by all
/// read-only explorer tests (fitting dominates test runtime).
const Trained& trained_predictors() {
  static const Trained* trained = [] {
    SyntheticDatasetConfig dc;
    dc.kind = GraphKind::kCdfg;
    dc.num_graphs = 60;
    dc.seed = 33;
    const std::vector<Sample> corpus = build_synthetic_dataset(dc);
    const SplitIndices split =
        split_80_10_10(static_cast<int>(corpus.size()), 3);
    ModelConfig mc;
    mc.kind = GnnKind::kRgcn;
    mc.hidden = 16;
    mc.layers = 2;
    TrainConfig tc;
    tc.epochs = 6;
    tc.lr = 1e-2F;
    tc.batch_size = 8;
    auto* t = new Trained{QorPredictor(Approach::kOffTheShelf, mc, tc),
                          QorPredictor(Approach::kOffTheShelf, mc, tc)};
    t->lut.fit(corpus, split, Metric::kLut, FitOptions{});
    t->ff.fit(corpus, split, Metric::kFf, FitOptions{});
    return t;
  }();
  return *trained;
}

PredictorScorer direct_scorer() {
  const Trained& t = trained_predictors();
  return PredictorScorer(
      {{Metric::kLut, &t.lut}, {Metric::kFf, &t.ff}});
}

DesignSpace small_space() {
  KnobGrid grid;
  grid.unroll = {1, 2};
  grid.bitwidth = {8, 16};
  return make_kernel_design_space("gemm", grid);
}

void expect_identical_results(const DseResult& a, const DseResult& b) {
  ASSERT_EQ(a.candidates.size(), b.candidates.size());
  for (std::size_t i = 0; i < a.candidates.size(); ++i) {
    EXPECT_EQ(a.candidates[i].point.label(), b.candidates[i].point.label());
    EXPECT_EQ(a.candidates[i].predicted, b.candidates[i].predicted);
    EXPECT_EQ(a.candidates[i].synthesized, b.candidates[i].synthesized);
    EXPECT_EQ(a.candidates[i].latency_cycles, b.candidates[i].latency_cycles);
    for (Metric m : kAllMetrics) {
      EXPECT_EQ(metric_of(a.candidates[i].sample.truth, m),
                metric_of(b.candidates[i].sample.truth, m));
    }
  }
  EXPECT_EQ(a.front, b.front);
  EXPECT_EQ(a.predicted_front, b.predicted_front);
  EXPECT_EQ(a.best, b.best);
  EXPECT_EQ(a.hls_runs, b.hls_runs);
  EXPECT_EQ(a.scorer_calls, b.scorer_calls);
  EXPECT_EQ(a.scored_graphs, b.scored_graphs);
  EXPECT_EQ(a.survivors_per_round, b.survivors_per_round);
}

TEST(ExplorerTest, ExhaustiveSynthesizesEveryPoint) {
  const DesignSpace space = small_space();
  const PredictorScorer scorer = direct_scorer();
  const Explorer explorer(space, scorer);
  const DseResult r = explorer.exhaustive();
  ASSERT_EQ(r.candidates.size(), space.size());
  EXPECT_EQ(r.hls_runs, static_cast<int>(space.size()));
  EXPECT_EQ(r.survivors_per_round, (std::vector<int>{4}));
  for (const DseCandidate& c : r.candidates) {
    EXPECT_TRUE(c.synthesized);
    EXPECT_GT(metric_of(c.sample.truth, Metric::kLut), 0.0);
    EXPECT_GT(c.predicted[static_cast<std::size_t>(Metric::kLut)], 0.0);
  }
  ASSERT_FALSE(r.front.empty());
  ASSERT_GE(r.best, 0);
  // best is the true rank-metric argmin and sits on the front.
  for (const DseCandidate& c : r.candidates) {
    EXPECT_LE(metric_of(
                  r.candidates[static_cast<std::size_t>(r.best)].sample.truth,
                  Metric::kLut),
              metric_of(c.sample.truth, Metric::kLut));
  }
}

/// One (space, budget) configuration of the halving gate. The grid runs
/// well beyond the 16-candidate CI smoke space: sizes 4, 12, >= 72 and
/// >= 240, each at top_k 1 and n/4, over more than one kernel.
struct HalvingCase {
  std::string kernel;
  KnobGrid grid;
  int top_k = 1;
};

std::string describe(const HalvingCase& c) {
  return c.kernel + " n=" + std::to_string(c.grid.size()) +
         " top_k=" + std::to_string(c.top_k);
}

std::vector<HalvingCase> halving_cases() {
  KnobGrid four;
  four.unroll = {1, 2};
  four.bitwidth = {8, 16};
  const std::vector<std::pair<std::string, KnobGrid>> spaces = {
      {"gemm", four},
      {"fir", four},
      {"gemm", KnobGrid{}},  // 12 points
      {"stencil", KnobGrid{}},
      {"fir", grid_with_at_least(72)},
      {"stencil", grid_with_at_least(240)},
  };
  std::vector<HalvingCase> cases;
  for (const auto& [kernel, grid] : spaces) {
    const int quarter = std::max(1, static_cast<int>(grid.size()) / 4);
    cases.push_back(HalvingCase{kernel, grid, 1});
    if (quarter > 1) cases.push_back(HalvingCase{kernel, grid, quarter});
  }
  return cases;
}

TEST(ExplorerTest, BitIdenticalAcrossThreadCounts) {
  const PredictorScorer scorer = direct_scorer();
  for (const HalvingCase& c : halving_cases()) {
    SCOPED_TRACE(describe(c));
    const DesignSpace space = make_kernel_design_space(c.kernel, c.grid);
    DseConfig cfg;
    cfg.top_k = c.top_k;
    // exhaustive ignores top_k and synthesizes every point: run it once per
    // small space (the large spaces' n/4 halving runs already shard their
    // synthesis across the pool).
    const bool with_exhaustive = c.top_k == 1 && c.grid.size() <= 12;
    DseResult serial_exh, serial_sh;
    {
      PoolGuard guard(1);
      // Construct inside the guard: candidate lowering happens at
      // construction and must be width-invariant too.
      const Explorer explorer(space, scorer, cfg);
      if (with_exhaustive) serial_exh = explorer.exhaustive();
      serial_sh = explorer.successive_halving();
    }
    {
      PoolGuard guard(4);
      const Explorer explorer(space, scorer, cfg);
      if (with_exhaustive) {
        expect_identical_results(serial_exh, explorer.exhaustive());
      }
      expect_identical_results(serial_sh, explorer.successive_halving());
    }
  }
}

TEST(ExplorerTest, HalvingRespectsGroundTruthBudget) {
  const PredictorScorer scorer = direct_scorer();
  for (const HalvingCase& c : halving_cases()) {
    SCOPED_TRACE(describe(c));
    const DesignSpace space = make_kernel_design_space(c.kernel, c.grid);
    const int n = static_cast<int>(space.size());
    DseConfig cfg;
    cfg.top_k = c.top_k;
    const Explorer explorer(space, scorer, cfg);
    const DseResult r = explorer.successive_halving();
    ASSERT_EQ(static_cast<int>(r.candidates.size()), n);

    // Survivors follow s -> max(top_k, ceil(s / 2)) until s <= top_k; every
    // round that still prunes afterwards re-scores the rank metric only.
    std::vector<int> rounds = {n};
    int scorer_calls = 2;  // round 0 scores LUT + FF over the full space
    int scored_graphs = 2 * n;
    while (rounds.back() > c.top_k) {
      const int keep = std::max(c.top_k, (rounds.back() + 1) / 2);
      rounds.push_back(keep);
      if (keep > c.top_k) {
        ++scorer_calls;
        scored_graphs += keep;
      }
    }
    EXPECT_EQ(r.survivors_per_round, rounds);
    EXPECT_EQ(r.hls_runs, std::min(n, c.top_k));
    EXPECT_EQ(r.scorer_calls, scorer_calls);
    EXPECT_EQ(r.scored_graphs, scored_graphs);

    // Only survivors are synthesized: predictions are identical every
    // round, so the survivors are the predicted-best min(n, top_k)
    // candidates overall, ties to the lower index.
    std::vector<int> order = all_indices(n);
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
      return r.candidates[static_cast<std::size_t>(a)]
                 .predicted[static_cast<std::size_t>(Metric::kLut)] <
             r.candidates[static_cast<std::size_t>(b)]
                 .predicted[static_cast<std::size_t>(Metric::kLut)];
    });
    order.resize(static_cast<std::size_t>(std::min(n, c.top_k)));
    std::vector<int> synthesized;
    for (int i = 0; i < n; ++i) {
      if (r.candidates[static_cast<std::size_t>(i)].synthesized) {
        synthesized.push_back(i);
      }
    }
    std::sort(order.begin(), order.end());
    EXPECT_EQ(synthesized, order);

    // front and best are drawn from the synthesized survivors only.
    for (int i : r.front) {
      EXPECT_TRUE(r.candidates[static_cast<std::size_t>(i)].synthesized);
    }
    ASSERT_GE(r.best, 0);
    EXPECT_TRUE(r.candidates[static_cast<std::size_t>(r.best)].synthesized);
  }
}

TEST(ExplorerTest, HalvingAgreesWithExhaustiveOnPredictions) {
  const DesignSpace space = make_kernel_design_space("gemm");
  const PredictorScorer scorer = direct_scorer();
  DseConfig cfg;
  cfg.top_k = 3;
  const Explorer explorer(space, scorer, cfg);
  const DseResult exh = explorer.exhaustive();
  const DseResult sh = explorer.successive_halving();
  // Predictions and the predicted front are strategy-independent.
  ASSERT_EQ(exh.candidates.size(), sh.candidates.size());
  for (std::size_t i = 0; i < exh.candidates.size(); ++i) {
    EXPECT_EQ(exh.candidates[i].predicted, sh.candidates[i].predicted);
  }
  EXPECT_EQ(exh.predicted_front, sh.predicted_front);
  // Survivors' ground truth matches the exhaustive sweep bit-for-bit.
  for (std::size_t i = 0; i < sh.candidates.size(); ++i) {
    if (!sh.candidates[i].synthesized) continue;
    for (Metric m : kAllMetrics) {
      EXPECT_EQ(metric_of(sh.candidates[i].sample.truth, m),
                metric_of(exh.candidates[i].sample.truth, m));
    }
  }
}

TEST(ExplorerTest, ConfigValidation) {
  const DesignSpace space = small_space();
  const PredictorScorer scorer = direct_scorer();
  DseConfig bad_topk;
  bad_topk.top_k = 0;
  EXPECT_THROW(Explorer(space, scorer, bad_topk), std::invalid_argument);
  DseConfig dup;
  dup.front_metrics = {Metric::kLut, Metric::kLut};
  EXPECT_THROW(Explorer(space, scorer, dup), std::invalid_argument);
  DseConfig unserved;
  unserved.front_metrics = {Metric::kDsp};  // scorer only has LUT + FF
  EXPECT_THROW(Explorer(space, scorer, unserved), std::invalid_argument);
  const PredictorScorer empty_scorer(
      std::vector<std::pair<Metric, const QorPredictor*>>{});
  EXPECT_THROW(empty_scorer.score(Metric::kLut, {}), std::invalid_argument);
}

// ----- ModelTable -----

TEST(ModelTableTest, RegistrationAndLookup) {
  const Trained& t = trained_predictors();
  ModelTable table;
  EXPECT_FALSE(table.has(Metric::kLut));
  table.add(Metric::kLut, &t.lut);
  EXPECT_TRUE(table.has(Metric::kLut));
  EXPECT_THROW(table.add(Metric::kLut, &t.ff), std::invalid_argument);
  EXPECT_THROW(table.add(Metric::kDsp, nullptr), std::invalid_argument);
  table.add(Metric::kFf, &t.ff);
  EXPECT_EQ(&table.model(Metric::kLut), &t.lut);
  EXPECT_EQ(&table.model(Metric::kFf), &t.ff);
  EXPECT_EQ(table.metrics(),
            (std::vector<Metric>{Metric::kLut, Metric::kFf}));
  EXPECT_THROW(table.model(Metric::kDsp), std::invalid_argument);
}

// ----- FeatureCache lifetime -----

TEST(ExplorerTest, EvictsFeatureCacheEntriesOnDestruction) {
  const PredictorScorer scorer = direct_scorer();  // fits before the baseline
  const DesignSpace space = make_kernel_design_space("gemm");
  const std::size_t baseline = FeatureCache::global().entries();
  {
    DseConfig cfg;
    cfg.top_k = 3;
    const Explorer explorer(space, scorer, cfg);
    const DseResult r = explorer.successive_halving();
    EXPECT_EQ(r.hls_runs, 3);
    // Scoring cached one feature matrix per candidate.
    EXPECT_EQ(FeatureCache::global().entries(), baseline + space.size());
  }
  EXPECT_EQ(FeatureCache::global().entries(), baseline);
}

}  // namespace
}  // namespace gnnhls
