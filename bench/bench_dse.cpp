// Design-space exploration bench: ranking quality and exploration
// throughput of the dse/ engine (the workload the paper's fast QoR
// prediction exists to serve).
//
// Trains LUT + FF predictors on a synthetic CDFG corpus, builds a gemm
// design space of >= --dse-points candidates (unroll x bitwidth x clock
// knobs) and reports:
//
//   * ranking quality — Spearman rank correlation of predicted vs
//     ground-truth QoR over the exhaustive sweep (the fidelity that decides
//     whether the predictor can drive pruning);
//   * successive halving vs exhaustive — ground-truth HLS invocations
//     (budget <= 25% of the sweep via --dse-topk), whether the sweep's
//     true top-1 survives the predictor-guided pruning, and whether the
//     surviving front matches the exhaustive front;
//   * exploration throughput — candidates/sec of a full successive-halving
//     run at pool width 1 and --threads (lowering + synthesis shards and
//     the batched forwards on the kernel pool).
//
// Hard gates (exit 1): every throughput row must reproduce the baseline
// exploration bit-for-bit across pool widths, and successive halving must
// respect its ground-truth budget. The
// data-dependent quality checks (Spearman level, top-1 recovery, front
// agreement) are report-only here — examples/design_space_exploration.cpp
// gates front agreement at its fixed seed as the CI quality smoke.
//
// --smoke shrinks everything to a CI-sized run (also used by the Release
// bench-smoke job).
#include <cstring>

#include "bench_common.h"
#include "dse/explorer.h"

namespace gnnhls::bench {
namespace {

struct TrainedModels {
  QorPredictor lut;
  QorPredictor ff;
};

TrainedModels train_models(const BenchConfig& cfg,
                           const std::vector<Sample>& corpus) {
  const SplitIndices split =
      split_80_10_10(static_cast<int>(corpus.size()), cfg.seed);
  ModelConfig mc = model_config(cfg);
  mc.kind = GnnKind::kRgcn;
  TrainConfig tc = train_config(cfg);
  TrainedModels models{QorPredictor(Approach::kOffTheShelf, mc, tc),
                       QorPredictor(Approach::kOffTheShelf, mc, tc)};
  Timer t;
  const double lut_val =
      models.lut.fit(corpus, split, Metric::kLut, FitOptions{}).best_val;
  const double ff_val =
      models.ff.fit(corpus, split, Metric::kFf, FitOptions{}).best_val;
  std::cout << "  trained LUT (val MAPE " << TextTable::pct(lut_val)
            << ") + FF (val MAPE " << TextTable::pct(ff_val) << ") in "
            << TextTable::num(t.seconds(), 1) << "s\n";
  return models;
}

double true_of(const DseCandidate& c, Metric m) {
  return metric_of(c.sample.truth, m);
}

double predicted_of(const DseCandidate& c, Metric m) {
  return c.predicted[static_cast<std::size_t>(m)];
}

double rank_quality(const DseResult& exhaustive, Metric m) {
  std::vector<double> predicted, truth;
  for (const DseCandidate& c : exhaustive.candidates) {
    predicted.push_back(predicted_of(c, m));
    truth.push_back(true_of(c, m));
  }
  return spearman_rank_correlation(predicted, truth);
}

bool same_exploration(const DseResult& a, const DseResult& b) {
  if (a.candidates.size() != b.candidates.size()) return false;
  for (std::size_t i = 0; i < a.candidates.size(); ++i) {
    if (a.candidates[i].predicted != b.candidates[i].predicted) return false;
    if (a.candidates[i].synthesized != b.candidates[i].synthesized) {
      return false;
    }
  }
  return a.front == b.front && a.predicted_front == b.predicted_front &&
         a.best == b.best && a.survivors_per_round == b.survivors_per_round;
}

int run(int argc, const char* const* argv) {
  // --smoke (CI scale) is bench_dse-specific: strip it before the shared
  // parser so it is not reported as an unknown flag.
  std::vector<const char*> args;
  bool smoke = false;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  const auto has_flag = [&args](const std::string& name) {
    for (const char* a : args) {
      if (name == a) return true;  // "--name value" form
      if (std::strncmp(a, name.c_str(), name.size()) == 0 &&
          a[name.size()] == '=') {
        return true;  // "--name=value" form
      }
    }
    return false;
  };
  BenchConfig cfg =
      parse_bench_config(static_cast<int>(args.size()), args.data());
  if (smoke) {
    // A preset, not an override: every explicit flag wins.
    const auto preset = [&has_flag](const char* flag, int& field, int value) {
      if (!has_flag(flag)) field = value;
    };
    preset("--cdfg-graphs", cfg.cdfg_graphs, 48);
    preset("--hidden", cfg.hidden, 16);
    preset("--layers", cfg.layers, 2);
    preset("--epochs", cfg.epochs, 6);
    preset("--batch-size", cfg.batch_size, 8);
    preset("--dse-points", cfg.dse_points, 16);
    preset("--threads", cfg.threads, 2);
  }
  print_header("DSE: predictor-guided design-space exploration", cfg);

  std::cout << "\n-- corpus + models --\n";
  const std::vector<Sample> corpus = build_cdfg(cfg);
  print_dataset_line("synthetic CDFG", corpus);
  const TrainedModels models = train_models(cfg, corpus);
  const PredictorScorer direct(
      {{Metric::kLut, &models.lut}, {Metric::kFf, &models.ff}});

  const DesignSpace space =
      make_kernel_design_space("gemm", grid_with_at_least(cfg.dse_points));
  const int n = static_cast<int>(space.size());
  // --dse-topk=0 keeps the default budget (and its hard gate below); only
  // a positive override hands budget responsibility to the user.
  const bool explicit_topk = cfg.dse_topk > 0;
  DseConfig dse;
  dse.front_metrics = {Metric::kLut, Metric::kFf};
  dse.rank_metric = Metric::kLut;
  dse.top_k = explicit_topk ? cfg.dse_topk : std::max(1, n / 4);
  const Explorer explorer(space, direct, dse);
  std::cout << "\n-- design space --\n  gemm, " << n
            << " candidates (unroll x bitwidth x clock x uncertainty), "
               "ground-truth budget top-k="
            << dse.top_k << "\n";

  // ----- ranking quality: exhaustive ground truth vs predictions -----
  Timer exh_timer;
  const DseResult exh = explorer.exhaustive();
  const double exh_s = exh_timer.seconds();
  const DseResult sh = explorer.successive_halving();
  std::cout << "\n-- ranking quality (exhaustive sweep, " << exh.hls_runs
            << " HLS runs in " << TextTable::num(exh_s, 2) << "s) --\n";
  TextTable quality({"metric", "Spearman rho (pred vs truth)"});
  for (Metric m : dse.front_metrics) {
    quality.add_row({metric_name(m), TextTable::num(rank_quality(exh, m), 3)});
  }
  std::cout << quality.to_string();

  // ----- successive halving vs exhaustive -----
  std::string trace;
  for (std::size_t i = 0; i < sh.survivors_per_round.size(); ++i) {
    trace += (i ? " -> " : "") + std::to_string(sh.survivors_per_round[i]);
  }
  std::cout << "\n-- successive halving (survivors " << trace << ") --\n  "
            << sh.hls_runs << "/" << exh.hls_runs
            << " ground-truth HLS runs, true front size "
            << exh.front.size() << ", recovered front size " << sh.front.size()
            << "\n";

  ShapeChecks checks;
  // With the default budget (--dse-topk=0 -> points/4) this is a hard
  // structural invariant; an explicit --dse-topk is the user's choice and
  // the check turns report-only.
  const bool budget_ok = sh.hls_runs * 4 <= exh.hls_runs;
  checks.check("halving HLS budget <= 25% of exhaustive", budget_ok);
  checks.check("halving recovers the exhaustive true top-1",
               sh.best == exh.best);
  checks.check("halving front == exhaustive front", sh.front == exh.front);
  checks.check("Spearman(LUT) >= 0.7 at this scale",
               rank_quality(exh, Metric::kLut) >= 0.7);

  BenchJsonLog json_log;
  for (Metric m : dse.front_metrics) {
    json_log.add(std::string("spearman ") + metric_name(m),
                 rank_quality(exh, m), "rho");
  }

  // ----- exploration throughput: pool width 1 and --threads -----
  std::cout << "\n-- exploration throughput (full successive-halving runs, "
               "candidates/sec) --\n";
  std::vector<int> thread_counts = {1};
  if (cfg.threads > 1) thread_counts.push_back(cfg.threads);
  TextTable throughput({"threads", "wall (s)", "cand/s"});
  bool sweep_identical = true;
  for (int threads : thread_counts) {
    ThreadPool::set_global_threads(threads);
    const Explorer row_explorer(space, direct, dse);
    Timer t;
    const DseResult r = row_explorer.successive_halving();
    const double wall = t.seconds();
    // Every row must reproduce the baseline exploration bit-for-bit — pool
    // width is value-neutral by the determinism contract.
    if (!same_exploration(sh, r)) sweep_identical = false;
    throughput.add_row({std::to_string(threads), TextTable::num(wall, 3),
                        TextTable::num(static_cast<double>(n) / wall, 1)});
    json_log.add("halving threads=" + std::to_string(threads),
                 static_cast<double>(n) / wall, "cand/s");
  }
  ThreadPool::set_global_threads(1);  // bench harness convention
  checks.check("sweep rows bit-identical across threads", sweep_identical);
  std::cout << throughput.to_string() << "\n";
  write_bench_json(cfg, json_log, "dse");

  checks.summary();
  const bool hard_ok = sweep_identical && (explicit_topk || budget_ok);
  if (!hard_ok) {
    std::cout << "FAIL: a hard DSE invariant (sweep bit-identity or the "
                 "default ground-truth budget) was violated\n";
    return 1;
  }
  std::cout << "hard invariants hold: scoring bit-identical across pool "
               "widths, ground-truth budget respected.\n";
  return 0;
}

}  // namespace
}  // namespace gnnhls::bench

int main(int argc, char** argv) { return gnnhls::bench::run(argc, argv); }
