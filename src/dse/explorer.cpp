#include "dse/explorer.h"

#include <algorithm>
#include <stdexcept>

#include "hls/hls_flow.h"
#include "obs/trace.h"
#include "support/check.h"
#include "support/parallel.h"
#include "train/feature_cache.h"

namespace gnnhls {

// ----- model table -----

void ModelTable::add(Metric metric, const QorPredictor* model) {
  GNNHLS_CHECK(model != nullptr, "ModelTable: null model");
  GNNHLS_CHECK(!has(metric), "ModelTable: duplicate metric entry");
  entries_.emplace_back(metric, model);
}

bool ModelTable::has(Metric metric) const {
  for (const auto& [m, model] : entries_) {
    if (m == metric) return true;
  }
  return false;
}

const QorPredictor& ModelTable::model(Metric metric) const {
  for (const auto& [m, model] : entries_) {
    if (m == metric) return *model;
  }
  throw std::invalid_argument("ModelTable: no model for metric " +
                              metric_name(metric));
}

std::vector<Metric> ModelTable::metrics() const {
  std::vector<Metric> out;
  out.reserve(entries_.size());
  for (const auto& entry : entries_) out.push_back(entry.first);
  return out;
}

// ----- scorers -----

// An empty table is constructible (metrics() is just empty) — the first
// score() against it throws through the ModelTable lookup.
PredictorScorer::PredictorScorer(ModelTable table)
    : table_(std::move(table)) {}

PredictorScorer::PredictorScorer(
    const std::vector<std::pair<Metric, const QorPredictor*>>& models) {
  for (const auto& [metric, predictor] : models) {
    table_.add(metric, predictor);
  }
}

std::vector<ScoreResult> PredictorScorer::score(
    Metric metric, const std::vector<const Sample*>& samples) const {
  const std::vector<double> pred = table_.model(metric).predict_many(samples);
  GNNHLS_CHECK_EQ(pred.size(), samples.size(), "scorer output size");
  std::vector<ScoreResult> out(pred.size());
  for (std::size_t j = 0; j < pred.size(); ++j) out[j].mean = pred[j];
  return out;
}

// ----- explorer -----

Explorer::Explorer(const DesignSpace& space, const Scorer& scorer,
                   DseConfig cfg)
    : space_(space), scorer_(scorer), cfg_(std::move(cfg)) {
  GNNHLS_CHECK(!cfg_.front_metrics.empty(),
               "Explorer: front_metrics must not be empty");
  for (std::size_t i = 0; i < cfg_.front_metrics.size(); ++i) {
    for (std::size_t j = i + 1; j < cfg_.front_metrics.size(); ++j) {
      GNNHLS_CHECK(cfg_.front_metrics[i] != cfg_.front_metrics[j],
                   "Explorer: duplicate front metric");
    }
  }
  GNNHLS_CHECK(cfg_.top_k >= 1, "Explorer: top_k must be >= 1");
  const std::vector<Metric> served = scorer_.metrics();
  for (Metric m : scored_metrics()) {
    GNNHLS_CHECK(std::find(served.begin(), served.end(), m) != served.end(),
                 "Explorer: scorer has no model for a required metric");
  }
  // Lower once, after validation: every strategy run starts from copies of
  // these candidates (same Sample uids => one FeatureCache entry per
  // candidate for this explorer's lifetime, however many runs happen).
  const std::vector<DesignPoint> points = space_.enumerate();
  std::vector<Sample> lowered = space_.lower_candidates();
  base_candidates_.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    base_candidates_.push_back(
        DseCandidate{points[i], std::move(lowered[i]), {}, false, 0.0});
  }
}

Explorer::~Explorer() {
  for (const DseCandidate& c : base_candidates_) {
    FeatureCache::global().evict(c.sample.uid);
  }
}

std::vector<Metric> Explorer::scored_metrics() const {
  std::vector<Metric> metrics = cfg_.front_metrics;
  if (std::find(metrics.begin(), metrics.end(), cfg_.rank_metric) ==
      metrics.end()) {
    metrics.push_back(cfg_.rank_metric);
  }
  return metrics;
}

void Explorer::score_round(std::vector<DseCandidate>& candidates,
                           const std::vector<int>& subset,
                           const std::vector<Metric>& metrics,
                           DseResult& r) const {
  const ObsSpan span(cfg_.obs.trace, "score_round", "dse");
  std::vector<const Sample*> samples;
  samples.reserve(subset.size());
  for (int i : subset) {
    samples.push_back(&candidates[static_cast<std::size_t>(i)].sample);
  }
  for (Metric m : metrics) {
    const std::vector<ScoreResult> pred = scorer_.score(m, samples);
    GNNHLS_CHECK_EQ(pred.size(), subset.size(), "scorer output size");
    for (std::size_t j = 0; j < subset.size(); ++j) {
      DseCandidate& c = candidates[static_cast<std::size_t>(subset[j])];
      c.predicted[static_cast<std::size_t>(m)] = pred[j].mean;
    }
    ++r.scorer_calls;
    r.scored_graphs += static_cast<int>(subset.size());
  }
}

void Explorer::synthesize(std::vector<DseCandidate>& candidates,
                          const std::vector<int>& subset, DseResult& r) const {
  const ObsSpan span(cfg_.obs.trace, "synthesize", "dse");
  parallel_shards(static_cast<int>(subset.size()), [&](int j) {
    DseCandidate& c =
        candidates[static_cast<std::size_t>(subset[static_cast<std::size_t>(j)])];
    const HlsOutcome outcome = run_hls_flow(c.sample.prog, c.point.hls);
    c.sample.truth = outcome.implemented;
    c.sample.hls_report = outcome.reported;
    c.latency_cycles = outcome.latency_cycles;
    c.synthesized = true;
  });
  r.hls_runs += static_cast<int>(subset.size());
}

namespace {

/// Pareto front restricted to `subset`, mapped back to candidate indices.
/// `value(i, m)` reads axis m of candidate i.
template <typename ValueFn>
std::vector<int> front_over(const std::vector<int>& subset,
                            const std::vector<Metric>& axes, ValueFn value) {
  std::vector<std::vector<double>> rows;
  rows.reserve(subset.size());
  for (int i : subset) {
    std::vector<double> row;
    row.reserve(axes.size());
    for (Metric m : axes) row.push_back(value(i, m));
    rows.push_back(std::move(row));
  }
  std::vector<int> front;
  for (int local : pareto_front(rows)) {
    front.push_back(subset[static_cast<std::size_t>(local)]);
  }
  return front;  // ascending: subset is ascending and pareto_front is too
}

}  // namespace

void Explorer::finalize(DseResult& r,
                        const std::vector<int>& synthesized) const {
  r.front = front_over(synthesized, cfg_.front_metrics, [&](int i, Metric m) {
    return metric_of(r.candidates[static_cast<std::size_t>(i)].sample.truth,
                     m);
  });
  r.predicted_front =
      front_over(all_indices(static_cast<int>(r.candidates.size())),
                 cfg_.front_metrics, [&](int i, Metric m) {
                   return r.candidates[static_cast<std::size_t>(i)]
                       .predicted[static_cast<std::size_t>(m)];
                 });
  for (int i : synthesized) {
    const double v = metric_of(
        r.candidates[static_cast<std::size_t>(i)].sample.truth,
        cfg_.rank_metric);
    if (r.best < 0 ||
        v < metric_of(
                r.candidates[static_cast<std::size_t>(r.best)].sample.truth,
                cfg_.rank_metric)) {
      r.best = i;  // strict < keeps the lowest index on ties
    }
  }
}

DseResult Explorer::exhaustive() const {
  DseResult r;
  r.candidates = base_candidates_;
  const std::vector<int> all =
      all_indices(static_cast<int>(r.candidates.size()));
  score_round(r.candidates, all, scored_metrics(), r);
  r.survivors_per_round.push_back(static_cast<int>(all.size()));
  synthesize(r.candidates, all, r);
  finalize(r, all);
  return r;
}

DseResult Explorer::successive_halving() const {
  DseResult r;
  r.candidates = base_candidates_;
  std::vector<int> survivors =
      all_indices(static_cast<int>(r.candidates.size()));
  r.survivors_per_round.push_back(static_cast<int>(survivors.size()));
  // Round 0 scores every metric over the full space (predicted_front needs
  // them); later rounds re-score only the rank metric over the survivors —
  // bit-identical values by the predict_many contract, but they exercise
  // the batched scoring path at each round's shrinking size.
  score_round(r.candidates, survivors, scored_metrics(), r);
  while (static_cast<int>(survivors.size()) > cfg_.top_k) {
    const ObsSpan round_span(cfg_.obs.trace, "halving_round", "dse");
    const int keep = std::max(
        cfg_.top_k, (static_cast<int>(survivors.size()) + 1) / 2);
    const std::size_t m = static_cast<std::size_t>(cfg_.rank_metric);
    std::sort(survivors.begin(), survivors.end(), [&](int a, int b) {
      const double ka = r.candidates[static_cast<std::size_t>(a)].predicted[m];
      const double kb = r.candidates[static_cast<std::size_t>(b)].predicted[m];
      if (ka != kb) return ka < kb;
      return a < b;  // deterministic tie-break: lower index survives
    });
    survivors.resize(static_cast<std::size_t>(keep));
    std::sort(survivors.begin(), survivors.end());
    r.survivors_per_round.push_back(keep);
    if (keep > cfg_.top_k) {
      score_round(r.candidates, survivors, {cfg_.rank_metric}, r);
    }
  }
  synthesize(r.candidates, survivors, r);
  finalize(r, survivors);
  return r;
}

}  // namespace gnnhls
