#include "core/predictor.h"

#include <algorithm>
#include <functional>

#include "gnn/graph_batch.h"
#include "support/parallel.h"
#include "train/feature_cache.h"

namespace gnnhls {

namespace {

/// Classifier training hooks shared by QorPredictor -I and
/// NodeTypePredictor: BCE over the three binary type tasks.
Trainer::Hooks classifier_hooks(const NodeClassifier& classifier) {
  Trainer::Hooks hooks;
  hooks.forward = [&classifier](Tape& tape, const GraphTensors& gt,
                                const Matrix& feats, Rng& rng) {
    return classifier.forward(tape, gt, feats, rng, true);
  };
  hooks.loss = [](Tape& tape, const Var& logits, const Matrix& labels) {
    return tape.bce_with_logits_loss(logits, labels);
  };
  return hooks;
}

/// Regressor training hooks: model forward + batch-mean MSE.
Trainer::Hooks regressor_hooks(const GraphRegressor& regressor) {
  Trainer::Hooks hooks;
  hooks.forward = [&regressor](Tape& tape, const GraphTensors& gt,
                               const Matrix& feats, Rng& rng) {
    return regressor.forward(tape, gt, feats, rng, true);
  };
  hooks.loss = [](Tape& tape, const Var& pred, const Matrix& target) {
    // One prediction row per member graph; MSE averages over the batch.
    return tape.mse_loss(pred, target);
  };
  return hooks;
}

/// Classifier data plan: off-the-shelf features, node-type label rows —
/// both served from the FeatureCache.
BatchPlan classifier_plan(const std::vector<Sample>& samples,
                          const std::vector<int>& train_idx,
                          const TrainConfig& tc) {
  const std::uint64_t order_seed = tc.seed * 31 + 7;
  return BatchPlan::build(
      samples, train_idx, tc.batch_size,
      [](const Sample& s) -> const Matrix& {
        return FeatureCache::global().features(s, Approach::kOffTheShelf);
      },
      [](const Sample& s) {
        return FeatureCache::global().node_type_labels(s);
      },
      Rng(order_seed),
      // Cores depend only on (membership, off-the-shelf features): the -I
      // hierarchy's classifier fit and the standalone NodeTypePredictor
      // share one assembly per (seed, split).
      BatchPlan::share_key("train/cls", order_seed, tc.batch_size, samples,
                           train_idx));
}

/// Runs `trainer` over `plan` with per-epoch validation and restores the
/// best epoch's parameters — the model selection every validated fit
/// shares. `validate` scores the model after each epoch; the best score
/// (higher or lower wins per `higher_is_better`) is tracked and its
/// parameters snapshotted.
FitReport fit_with_epoch_selection(Module& model, BatchPlan& plan,
                                   Trainer& trainer, bool higher_is_better,
                                   const std::function<double()>& validate) {
  FitReport report;
  std::vector<Matrix> best_params;
  const FitReport run = trainer.fit(plan, FitOptions{}, [&](int epoch) {
    const double val = validate();
    report.val_curve.push_back(val);
    const bool better =
        higher_is_better ? val > report.best_val : val < report.best_val;
    if (report.best_epoch < 0 || better) {
      report.best_val = val;
      report.best_epoch = epoch;
      best_params = snapshot_parameters(model);
    }
  });
  report.epochs_run = run.epochs_run;
  report.steps = run.steps;
  if (!best_params.empty()) restore_parameters(model, best_params);
  return report;
}

}  // namespace

std::vector<Matrix> snapshot_parameters(const Module& m) {
  std::vector<Matrix> snap;
  snap.reserve(m.parameters().size());
  for (const Parameter* p : m.parameters()) snap.push_back(p->value());
  return snap;
}

void restore_parameters(Module& m, const std::vector<Matrix>& snap) {
  GNNHLS_CHECK_EQ(snap.size(), m.parameters().size(),
                  "parameter snapshot shape mismatch");
  for (std::size_t i = 0; i < snap.size(); ++i) {
    m.parameters()[i]->mutable_value() = snap[i];
  }
}

QorPredictor::QorPredictor(Approach approach, ModelConfig model_cfg,
                           TrainConfig train_cfg, InfusedInference infused)
    : approach_(approach),
      model_cfg_(model_cfg),
      train_cfg_(train_cfg),
      infused_(infused) {}

bool QorPredictor::pure_inference_features() const {
  return approach_ != Approach::kKnowledgeInfused ||
         infused_ == InfusedInference::kOracle;
}

Matrix QorPredictor::infused_features(const Sample& s) const {
  // Hierarchical inference: self-inferred resource types replace labels.
  // Only the classifier-independent base features are cacheable.
  GNNHLS_CHECK(classifier_ != nullptr, "predict before fit");
  const Matrix& base =
      FeatureCache::global().features(s, Approach::kOffTheShelf);
  const auto inferred = classifier_->infer_types(s.tensors, base);
  return InputFeatureBuilder::build(s.graph(), approach_, &inferred);
}

void QorPredictor::fit_classifier(const std::vector<Sample>& samples,
                                  const std::vector<int>& train_idx) {
  const std::uint64_t seed = train_cfg_.seed;
  Rng init_rng(seed * 7919 + 13);
  classifier_ = std::make_unique<NodeClassifier>(
      model_cfg_, InputFeatureBuilder::feature_dim(Approach::kOffTheShelf),
      init_rng);
  BatchPlan plan = classifier_plan(samples, train_idx, train_cfg_);
  Trainer trainer(*classifier_, train_cfg_, classifier_hooks(*classifier_),
                  seed * 17 + 3);
  // -I keeps the last classifier epoch (no validation-driven selection).
  trainer.fit(plan, FitOptions{}, nullptr);
}

FitReport QorPredictor::fit(const std::vector<Sample>& samples,
                            const SplitIndices& split, Metric metric,
                            const FitOptions& /*opts*/) {
  metric_ = metric;
  GNNHLS_CHECK(!split.train.empty() && !split.val.empty(),
               "fit: empty train/val split");
  tune_malloc_for_tensor_workloads();  // epochs of tape churn ahead
  const std::uint64_t seed = train_cfg_.seed;

  if (approach_ == Approach::kKnowledgeInfused &&
      infused_ == InfusedInference::kSelfInferred) {
    fit_classifier(samples, split.train);
  }
  Rng init_rng(seed * 104729 + static_cast<int>(metric));
  regressor_ = std::make_unique<GraphRegressor>(
      model_cfg_, InputFeatureBuilder::feature_dim(approach_), init_rng);

  // -I trains on ground-truth type bits (knowledge infusion), so training
  // features are a pure function of (sample, approach) for every approach
  // and come from the FeatureCache. Plan cores depend only on (seed, split,
  // approach) — never on the fitted metric, which lives in the labels — so
  // per-metric fits over the same split share one union assembly through
  // the BatchCoreCache.
  const std::uint64_t order_seed = seed * 31 + 1;
  BatchPlan plan = BatchPlan::build(
      samples, split.train, train_cfg_.batch_size,
      [this](const Sample& s) -> const Matrix& {
        return FeatureCache::global().features(s, approach_);
      },
      [this](const Sample& s) {
        return Matrix(1, 1,
                      encode_target(metric_of(s.truth, metric_), metric_));
      },
      Rng(order_seed),
      BatchPlan::share_key(
          "train/reg/a" + std::to_string(static_cast<int>(approach_)),
          order_seed, train_cfg_.batch_size, samples, split.train));

  Trainer trainer(*regressor_, train_cfg_, regressor_hooks(*regressor_),
                  seed * 17 + 2);
  // Lower validation MAPE wins. NOTE: -I validates through the full
  // hierarchical path (classifier bits), matching deployment.
  return fit_with_epoch_selection(
      *regressor_, plan, trainer, /*higher_is_better=*/false,
      [&] { return evaluate_mape(samples, split.val); });
}

double QorPredictor::predict(const Sample& sample) const {
  GNNHLS_CHECK(regressor_ != nullptr, "predict before fit");
  const float encoded =
      pure_inference_features()
          ? regressor_->predict(
                sample.tensors,
                FeatureCache::global().features(sample, approach_))
          : regressor_->predict(sample.tensors, infused_features(sample));
  return decode_target(encoded, metric_);
}

std::vector<double> QorPredictor::predict_many(
    const std::vector<const Sample*>& samples) const {
  GNNHLS_CHECK(regressor_ != nullptr, "predict before fit");
  if (samples.empty()) return {};
  // On the pure path the stacked features point straight into the
  // FeatureCache (zero rebuild, zero copy); the hierarchical -I path runs
  // the classifier per sample and owns its feature matrices for the
  // duration of the batch.
  const bool pure = pure_inference_features();
  std::vector<Matrix> owned;
  std::vector<const GraphTensors*> parts;
  std::vector<const Matrix*> fparts;
  if (pure) {
    fparts.reserve(samples.size());
  } else {
    owned.reserve(samples.size());
  }
  parts.reserve(samples.size());
  for (const Sample* s : samples) {
    GNNHLS_CHECK(s != nullptr, "predict_many: null sample");
    if (pure) {
      fparts.push_back(&FeatureCache::global().features(*s, approach_));
    } else {
      owned.push_back(infused_features(*s));
    }
    parts.push_back(&s->tensors);
  }
  const GraphBatch batch = GraphBatch::build(parts);
  const Matrix stacked = pure ? GraphBatch::stack_features(fparts)
                              : GraphBatch::stack_features(owned);
  const std::vector<float> encoded =
      regressor_->predict_batch(batch.merged, stacked);
  std::vector<double> pred;
  pred.reserve(encoded.size());
  for (float e : encoded) pred.push_back(decode_target(e, metric_));
  return pred;
}

double QorPredictor::evaluate_mape(const std::vector<Sample>& samples,
                                   const std::vector<int>& idx) const {
  GNNHLS_CHECK(regressor_ != nullptr, "evaluate before fit");
  std::vector<double> pred, truth;
  pred.reserve(idx.size());
  truth.reserve(idx.size());
  const std::size_t bs =
      static_cast<std::size_t>(std::max(train_cfg_.batch_size, 1));
  if (bs <= 1) {
    for (int i : idx) {
      const Sample& s = samples[static_cast<std::size_t>(i)];
      pred.push_back(predict(s));
      truth.push_back(metric_of(s.truth, metric_));
    }
  } else if (!pure_inference_features()) {
    // Hierarchical self-inferred features depend on the trained classifier,
    // so the chunk unions cannot come from the sample-keyed core cache;
    // keep the serial predict_many chunk loop.
    std::vector<const Sample*> chunk;
    chunk.reserve(bs);
    for (std::size_t pos = 0; pos < idx.size(); pos += bs) {
      const std::size_t end = std::min(pos + bs, idx.size());
      chunk.clear();
      for (std::size_t i = pos; i < end; ++i) {
        const Sample& s = samples[static_cast<std::size_t>(idx[i])];
        chunk.push_back(&s);
        truth.push_back(metric_of(s.truth, metric_));
      }
      for (double p : predict_many(chunk)) pred.push_back(p);
    }
  } else {
    // Sharded evaluation: the chunk unions come from an eval-side BatchPlan
    // (cores shared across epochs and fits via the BatchCoreCache) and
    // the per-chunk forwards fan out on the thread pool, each filling its
    // own pre-sized slot range. Chunk boundaries and per-chunk math are
    // exactly the serial loop's, so the result is bit-identical to serial
    // evaluation at any pool width.
    const BatchPlan plan = BatchPlan::build_eval(
        samples, idx, static_cast<int>(bs),
        [this](const Sample& s) -> const Matrix& {
          return FeatureCache::global().features(s, approach_);
        },
        BatchPlan::share_key(
            "eval/a" + std::to_string(static_cast<int>(approach_)),
            /*order_seed=*/0, static_cast<int>(bs), samples, idx));
    for (int i : idx) {
      truth.push_back(
          metric_of(samples[static_cast<std::size_t>(i)].truth, metric_));
    }
    pred.assign(idx.size(), 0.0);
    parallel_shards(plan.num_batches(), [&](int b) {
      const BatchPlan::Item& item = plan.item(b);
      const std::vector<float> encoded =
          regressor_->predict_batch(item.batch().merged, item.features());
      const std::size_t base = static_cast<std::size_t>(b) * bs;
      for (std::size_t j = 0; j < encoded.size(); ++j) {
        pred[base + j] = decode_target(encoded[j], metric_);
      }
    });
  }
  return mape(pred, truth);
}

// ----- NodeTypePredictor -----

NodeTypePredictor::NodeTypePredictor(ModelConfig model_cfg,
                                     TrainConfig train_cfg)
    : model_cfg_(model_cfg), train_cfg_(train_cfg) {}

FitReport NodeTypePredictor::fit(const std::vector<Sample>& samples,
                                 const SplitIndices& split,
                                 const FitOptions& /*opts*/) {
  tune_malloc_for_tensor_workloads();
  const std::uint64_t seed = train_cfg_.seed;
  Rng init_rng(seed * 7919 + 13);
  classifier_ = std::make_unique<NodeClassifier>(
      model_cfg_, InputFeatureBuilder::feature_dim(Approach::kOffTheShelf),
      init_rng);
  BatchPlan plan = classifier_plan(samples, split.train, train_cfg_);
  Trainer trainer(*classifier_, train_cfg_, classifier_hooks(*classifier_),
                  seed * 17 + 3);
  // Higher validation mean accuracy wins.
  return fit_with_epoch_selection(
      *classifier_, plan, trainer, /*higher_is_better=*/true, [&] {
        const NodeClassifierScores val = evaluate(samples, split.val);
        return (val.dsp + val.lut + val.ff) / 3.0;
      });
}

NodeClassifierScores NodeTypePredictor::evaluate(
    const std::vector<Sample>& samples, const std::vector<int>& idx) const {
  GNNHLS_CHECK(classifier_ != nullptr, "evaluate before fit");
  std::array<std::vector<int>, 3> pred, truth;
  for (int i : idx) {
    const Sample& s = samples[static_cast<std::size_t>(i)];
    const Matrix& feats =
        FeatureCache::global().features(s, Approach::kOffTheShelf);
    const auto inferred = classifier_->infer_types(s.tensors, feats);
    const Matrix& labels = FeatureCache::global().node_type_labels(s);
    for (int v = 0; v < s.graph().num_nodes(); ++v) {
      const auto& t = inferred[static_cast<std::size_t>(v)];
      pred[0].push_back(t.dsp > 0.5F);
      pred[1].push_back(t.lut > 0.5F);
      pred[2].push_back(t.ff > 0.5F);
      truth[0].push_back(labels(v, 0) > 0.5F);
      truth[1].push_back(labels(v, 1) > 0.5F);
      truth[2].push_back(labels(v, 2) > 0.5F);
    }
  }
  NodeClassifierScores scores;
  scores.dsp = binary_accuracy(pred[0], truth[0]);
  scores.lut = binary_accuracy(pred[1], truth[1]);
  scores.ff = binary_accuracy(pred[2], truth[2]);
  return scores;
}

}  // namespace gnnhls
