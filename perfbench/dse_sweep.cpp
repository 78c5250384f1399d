// dse_sweep: predictor-guided design-space exploration.
//
// Set-up trains off-the-shelf RGCN LUT and FF predictors on a synthetic
// CDFG corpus. The measured phase loops over the gemm, fir and
// stencil design spaces (grid_with_at_least(240)); each pass builds a fresh
// Explorer (candidate lowering plus cold feature builds) over a
// PredictorScorer and runs successive_halving with top_k = n/4. Each
// forward is a union of up to 240 CDFGs, so arithmetic dominates; serve/
// is never touched.
//
// Exactness: every pass's DseResult must equal the first pass's for the same
// kernel (survivors, predicted values bit for bit, fronts, best, synthesized
// truth) and spend exactly top_k HLS runs.
#include <cstring>
#include <iostream>
#include <memory>

#include "common.h"
#include "dse/explorer.h"
#include "obs/trace.h"
#include "support/parallel.h"
#include "train/feature_cache.h"
#include "workloads.h"

namespace gnnhls::perfbench {
namespace {

constexpr int kPoolWidth = 2;
constexpr int kTrainGraphs = 300;
constexpr int kEpochs = 12;
constexpr int kSetupReps = 3;
const char* const kKernels[] = {"gemm", "fir", "stencil"};

bool same_result(const DseResult& a, const DseResult& b) {
  if (a.survivors_per_round != b.survivors_per_round || a.front != b.front ||
      a.predicted_front != b.predicted_front || a.best != b.best ||
      a.hls_runs != b.hls_runs || a.candidates.size() != b.candidates.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.candidates.size(); ++i) {
    const DseCandidate& x = a.candidates[i];
    const DseCandidate& y = b.candidates[i];
    if (std::memcmp(x.predicted.data(), y.predicted.data(),
                    sizeof x.predicted) != 0 ||
        x.synthesized != y.synthesized ||
        x.latency_cycles != y.latency_cycles ||
        x.sample.truth.lut != y.sample.truth.lut ||
        x.sample.truth.ff != y.sample.truth.ff) {
      return false;
    }
  }
  return true;
}

/// Times every score call of the scorer it wraps: the DSE's predictor
/// queries, whose graphs per second of scoring time stand in for
/// serve_sat_rps on this workload. The explorer calls score() from one
/// thread at a time.
class TimedScorer : public Scorer {
 public:
  explicit TimedScorer(const Scorer& inner) : inner_(inner) {}
  std::vector<ScoreResult> score(
      Metric metric, const std::vector<const Sample*>& samples) const override {
    const double t0 = now_s();
    std::vector<ScoreResult> out = inner_.score(metric, samples);
    busy_s += now_s() - t0;
    graphs += static_cast<double>(samples.size());
    return out;
  }
  std::vector<Metric> metrics() const override { return inner_.metrics(); }

  mutable double busy_s = 0.0;
  mutable double graphs = 0.0;

 private:
  const Scorer& inner_;
};

struct Sweep {
  std::vector<double> cand_per_s;  // one per pass over the three kernels
  double explorer_build_ms = 0.0;
  double wall_ms = 0.0;
  std::uint64_t explores = 0;
  std::uint64_t failed = 0;
  int hls_runs_per_pass = 0;
  double nodes_per_forward = 0.0;  // mean union size of a score call
  double edges_per_forward = 0.0;
};

}  // namespace

void run_dse_sweep(const Args& args, Report& rep) {
  ThreadPool::set_global_threads(kPoolWidth);
  tune_malloc_for_tensor_workloads();

  // ----- set-up: corpus and the LUT + FF fits (repeated) -----
  std::vector<Sample> corpus;
  SplitIndices split;
  std::unique_ptr<QorPredictor> lut;
  std::unique_ptr<QorPredictor> ff;
  std::vector<double> fit_rates;
  std::vector<double> build_ms_per_graph;
  const double setup_s = repeated_setup(kSetupReps, [&] {
    const double tb = now_s();
    // The scoring models are a fixed set-up artifact (constant corpus, split
    // and initialisation): fitted on seeded corpora of this size, the LUT
    // model's test MAPE moved by a third between seeds. --seed draws the
    // held-out set that model is tested on.
    corpus = make_corpus(GraphKind::kCdfg, kTrainGraphs, kInitSeed * 1000 + 3);
    build_ms_per_graph.push_back((now_s() - tb) * 1e3 / kTrainGraphs);
    split = split_80_10_10(kTrainGraphs, kInitSeed);
    TrainConfig tc;
    tc.epochs = kEpochs;
    tc.lr = 3e-3F;
    tc.batch_size = 8;
    tc.shards = kPoolWidth;
    tc.seed = kInitSeed;
    tc.obs.trace = args.trace;
    const double tf = now_s();
    lut = std::make_unique<QorPredictor>(Approach::kOffTheShelf, bench_model(),
                                         tc);
    lut->fit(corpus, split, Metric::kLut, FitOptions{});
    ff = std::make_unique<QorPredictor>(Approach::kOffTheShelf, bench_model(),
                                        tc);
    ff->fit(corpus, split, Metric::kFf, FitOptions{});
    fit_rates.push_back(2.0 * kEpochs *
                        static_cast<double>(split.train.size()) /
                        (now_s() - tf));
  });

  std::vector<DesignSpace> spaces;
  for (const char* k : kKernels) {
    spaces.push_back(make_kernel_design_space(k, grid_with_at_least(240)));
  }
  const PredictorScorer direct(
      {{Metric::kLut, lut.get()}, {Metric::kFf, ff.get()}});
  const TimedScorer scorer(direct);
  DseConfig cfg;
  cfg.obs.trace = args.trace;
  std::vector<std::unique_ptr<DseResult>> reference(spaces.size());

  // One pass = the three kernels; passes repeat until `seconds` elapse.
  const auto sweep = [&](double seconds) {
    Sweep s;
    const double start = now_s();
    do {
      const double t0 = now_s();
      double cands = 0.0;
      s.hls_runs_per_pass = 0;
      for (std::size_t k = 0; k < spaces.size(); ++k) {
        DseConfig c = cfg;
        c.top_k = std::max(1, static_cast<int>(spaces[k].size()) / 4);
        const double tx = now_s();
        const Explorer ex(spaces[k], scorer, c);
        s.explorer_build_ms += (now_s() - tx) * 1e3;
        DseResult r = ex.successive_halving();
        cands += static_cast<double>(spaces[k].size());
        s.hls_runs_per_pass += r.hls_runs;
        ++s.explores;
        if (r.hls_runs != c.top_k) ++s.failed;
        if (!reference[k]) {
          double nodes = 0.0;
          double edges = 0.0;
          for (const DseCandidate& cand : r.candidates) {
            nodes += cand.sample.graph().num_nodes();
            edges += cand.sample.graph().num_edges();
          }
          const double per_call = static_cast<double>(r.scored_graphs) /
                                  std::max(1, r.scorer_calls);
          const double n = static_cast<double>(r.candidates.size());
          s.nodes_per_forward += nodes / n * per_call / spaces.size();
          s.edges_per_forward += edges / n * per_call / spaces.size();
          reference[k] = std::make_unique<DseResult>(std::move(r));
        } else if (!same_result(*reference[k], r)) {
          ++s.failed;
        }
      }
      s.cand_per_s.push_back(cands / (now_s() - t0));
    } while (now_s() - start < seconds);
    s.wall_ms = (now_s() - start) * 1e3;
    return s;
  };

  // ----- measured phase -----
  if (args.trace) {
    TraceCollector::global().clear();
    TraceCollector::global().start();
  }
  const Sweep m = sweep(args.seconds);
  const double graphs_per_score_s = scorer.graphs / scorer.busy_s;
  const double rss = peak_rss_mb();
  const std::size_t cache_entries = FeatureCache::global().entries();
  rep.phase("dse_sweep.explore", m.explores, m.failed);
  const double cand_per_s = median(m.cand_per_s);
  std::cout << "dse_sweep: " << m.cand_per_s.size() << " passes, median "
            << cand_per_s << " cand/s, " << m.hls_runs_per_pass
            << " HLS runs per pass\n";

  rep.e2e("setup_s", setup_s, "s");
  rep.e2e("peak_rss_mb", rss, "MB");
  rep.e2e("dse_cand_per_s", cand_per_s, "cand/s");
  rep.e2e("train_graphs_per_s", median(fit_rates), "graphs/s");
  // Predictor queries of the sweep itself (no serving tier here).
  rep.e2e("serve_sat_rps", graphs_per_score_s, "1/s");
  if (!rep.traced()) {
    rep.e2e("train_test_mape",
            heldout_mape(*lut, GraphKind::kCdfg, args.seed), "%");
  } else {
    TraceCollector::global().stop();
    if (!TraceCollector::global().write_json(args.trace_out)) {
      rep.check("trace written to " + args.trace_out, false);
    }
    const Sweep u = sweep(args.seconds / 2);
    rep.phase("dse_sweep.explore_untraced", u.explores, u.failed);
    rep.layer("obs.trace_overhead",
              100.0 * (median(u.cand_per_s) / cand_per_s - 1.0), "%");

    LayerTimes lt;
    std::vector<std::vector<Sample>> cands;
    for (int r = 0; r < 2; ++r) {
      cands.clear();
      for (const DesignSpace& sp : spaces) {
        cands.push_back(
            lt.time("dse.lower", [&] { return sp.lower_candidates(); }));
      }
    }
    for (const std::vector<Sample>& kernel : cands) {
      std::vector<const Sample*> ptrs;
      for (const Sample& s : kernel) ptrs.push_back(&s);
      gnn_probe(ptrs, static_cast<int>(ptrs.size()), lt);
      predict_many_probe(*lut, ptrs, static_cast<int>(ptrs.size()), 2, lt,
                         "core.predict_many.b240");
    }
    hls_probe(cands[0], 60, lt);
    lt.time("core.evaluate_mape",
            [&] { return lut->evaluate_mape(corpus, split.test); });
    for (const char* name : {"dse.lower", "core.predict_many.b240",
                             "core.evaluate_mape", "gnn.feature_build",
                             "gnn.batch_build", "hls.synth"}) {
      rep.layer_timed(name, lt.get(name));
    }
    rep.layer("dse.hls_runs", m.hls_runs_per_pass, "count");
    rep.layer("dse.feature_cache_entries_end",
              static_cast<double>(cache_entries), "count");
    rep.layer("gnn.nodes_per_forward", m.nodes_per_forward, "nodes");
    rep.layer("gnn.edges_per_forward", m.edges_per_forward, "edges");
    rep.layer("dataset.build_ms_per_graph", median(build_ms_per_graph), "ms");
    rep.attribution("total", m.wall_ms, {"score_round", "synthesize"},
                    {{"explorer_build", m.explorer_build_ms}});
  }
  stamp_run(rep, args, kPoolWidth, 0);
}

}  // namespace gnnhls::perfbench
