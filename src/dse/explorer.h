// Predictor-guided design-space exploration.
//
// The Explorer turns a DesignSpace into ranked, Pareto-annotated results
// using a trained QoR predictor as the cheap fidelity and the HLS flow as
// the expensive ground truth:
//
//   * lowering: every candidate is lowered to a CDFG + tensors in parallel
//     on the support/parallel.h thread pool (each shard fills its own slot,
//     so results are byte-identical at any pool width);
//   * scoring: ONE batched scorer call per (metric, round) — a direct
//     QorPredictor::predict_many forward per registered model;
//   * strategies: `exhaustive` synthesizes every point (the ground-truth
//     sweep DSE exists to avoid); `successive_halving` prunes the candidate
//     set by predicted rank each round and invokes the HLS flow only on the
//     surviving top-k.
//
// Determinism contract: a DseResult is a pure function of (space, trained
// model, config) — candidate order, predicted values, fronts and the
// halving trace never depend on thread count.
#pragma once

#include <array>
#include <utility>
#include <vector>

#include "core/predictor.h"
#include "dse/design_space.h"
#include "dse/pareto.h"

namespace gnnhls {

/// One scored/synthesized candidate. `predicted` holds the scorer's decoded
/// values indexed by Metric (0 until that metric is scored); `sample.truth`
/// is valid only when `synthesized`.
struct DseCandidate {
  DesignPoint point;
  Sample sample;
  std::array<double, kNumMetrics> predicted{};
  bool synthesized = false;
  double latency_cycles = 0.0;
};

/// Outcome of one exploration strategy. All index vectors refer to
/// `candidates` (enumeration order) and are sorted ascending.
struct DseResult {
  std::vector<DseCandidate> candidates;
  /// Non-dominated set on *true* QoR over the synthesized candidates.
  std::vector<int> front;
  /// Non-dominated set on *predicted* QoR over every candidate.
  std::vector<int> predicted_front;
  /// Synthesized candidate with the best (lowest) true rank_metric;
  /// ties break to the lowest index.
  int best = -1;
  /// Ground-truth HLS flow invocations (the budget DSE minimizes).
  int hls_runs = 0;
  /// Batched scorer invocations / total graphs pushed through them.
  int scorer_calls = 0;
  int scored_graphs = 0;
  /// Candidate-set size after each halving round (exhaustive: one entry).
  std::vector<int> survivors_per_round;
};

/// The (metric -> predictor) table a PredictorScorer scores from.
/// Registration order is scoring order; models are borrowed and must be
/// fitted and outlive the table's users.
class ModelTable {
 public:
  ModelTable() = default;

  /// Registers `model` for `metric` (one model per metric).
  void add(Metric metric, const QorPredictor* model);

  bool has(Metric metric) const;
  /// The model registered for `metric`. Throws std::invalid_argument when
  /// the metric has no entry.
  const QorPredictor& model(Metric metric) const;
  /// Registered metrics in registration order.
  std::vector<Metric> metrics() const;

 private:
  std::vector<std::pair<Metric, const QorPredictor*>> entries_;
};

/// One scored prediction: the scorer's decoded value.
struct ScoreResult {
  double mean = 0.0;
};

/// Batched prediction source: one call scores one metric over a candidate
/// slice. Implementations must be deterministic and safe to call from the
/// exploring thread only.
class Scorer {
 public:
  virtual ~Scorer() = default;
  /// Decoded ScoreResults for `metric`, in input order, via one batched
  /// model entry. Throws if `metric` has no model.
  virtual std::vector<ScoreResult> score(
      Metric metric, const std::vector<const Sample*>& samples) const = 0;
  /// Metrics this scorer can serve, in registration order.
  virtual std::vector<Metric> metrics() const = 0;
};

/// Scores through direct QorPredictor::predict_many calls over a
/// ModelTable: score() runs one batched forward of the metric's model, so
/// every value bitwise matches QorPredictor::predict. Models are borrowed:
/// they must be fitted, and outlive the scorer.
class PredictorScorer : public Scorer {
 public:
  explicit PredictorScorer(ModelTable table);
  /// Convenience form: each (metric, predictor) pair becomes a ModelTable
  /// entry, in order.
  explicit PredictorScorer(
      const std::vector<std::pair<Metric, const QorPredictor*>>& models);

  std::vector<ScoreResult> score(
      Metric metric,
      const std::vector<const Sample*>& samples) const override;
  std::vector<Metric> metrics() const override { return table_.metrics(); }

 private:
  ModelTable table_;
};

struct DseConfig {
  /// Axes of the Pareto fronts (order = axis order; duplicates rejected).
  std::vector<Metric> front_metrics = {Metric::kLut, Metric::kFf};
  /// Metric that drives successive-halving pruning and `best`.
  Metric rank_metric = Metric::kLut;
  /// Ground-truth synthesis budget of successive halving (>= 1): pruning
  /// halves the candidate set until at most top_k points survive.
  int top_k = 4;
  /// Observability knobs (obs/obs_config.h): obs.trace emits
  /// halving_round / score_round / synthesize spans when the process-wide
  /// TraceCollector is active. Execution-only: DseResult is unchanged.
  ObsConfig obs;
};

class Explorer {
 public:
  /// `space` and `scorer` are borrowed and must outlive the explorer. The
  /// scorer must serve every metric in front_metrics + rank_metric.
  /// Construction lowers the whole space once (in parallel shards); both
  /// strategies start from copies of those candidates, so repeated
  /// explorations share one Sample uid set — the process-wide FeatureCache
  /// holds one feature matrix per candidate per Explorer, not per run.
  Explorer(const DesignSpace& space, const Scorer& scorer,
           DseConfig cfg = {});
  /// Evicts the candidates' FeatureCache entries: their uids are private
  /// to this explorer, and no reference to the entries outlives its own
  /// (synchronous) score calls.
  ~Explorer();
  Explorer(const Explorer&) = delete;
  Explorer& operator=(const Explorer&) = delete;

  /// Scores + synthesizes EVERY candidate; fronts and best are computed
  /// on full ground truth (hls_runs == space.size()).
  DseResult exhaustive() const;

  /// Predictor-guided pruning: score all candidates once, then repeatedly
  /// keep the predicted-best half (never fewer than top_k, ties to the
  /// lower index, survivors re-scored through the batched path each round)
  /// until at most top_k survive; only survivors get a ground-truth HLS
  /// run. front/best are computed on the survivors' truth.
  DseResult successive_halving() const;

  const DseConfig& config() const { return cfg_; }

 private:
  /// One batched scorer call per metric over candidates[subset].
  void score_round(std::vector<DseCandidate>& candidates,
                   const std::vector<int>& subset,
                   const std::vector<Metric>& metrics, DseResult& r) const;
  /// Ground-truth HLS flow over candidates[subset], in parallel shards.
  void synthesize(std::vector<DseCandidate>& candidates,
                  const std::vector<int>& subset, DseResult& r) const;
  /// All metrics to score: front_metrics + rank_metric, deduplicated.
  std::vector<Metric> scored_metrics() const;
  void finalize(DseResult& r, const std::vector<int>& synthesized) const;

  const DesignSpace& space_;
  const Scorer& scorer_;
  DseConfig cfg_;
  /// Lowered once at construction; strategies copy (copies keep each
  /// Sample's uid, the FeatureCache identity).
  std::vector<DseCandidate> base_candidates_;
};

}  // namespace gnnhls
