// QorPredictor — the paper's three prediction approaches behind one API
// (§4, Fig. 2).
//
//   * kOffTheShelf      — GraphRegressor on raw IR-graph features.
//   * kKnowledgeRich    — GraphRegressor on raw features + per-node resource
//                         values from intermediate HLS results.
//   * kKnowledgeInfused — hierarchical: a NodeClassifier is trained first on
//                         node-level resource types; the GraphRegressor
//                         trains on ground-truth type bits ("domain
//                         knowledge is infused by providing labels") and at
//                         inference consumes the classifier's self-inferred
//                         bits — earliest-stage prediction, zero extra
//                         inference inputs.
//
// The paper's training recipe (Adam, fixed epoch budget, minibatch
// accumulation, best-validation-epoch parameter selection) lives in the
// src/train/ subsystem: each fit here builds a BatchPlan over cached feature
// tensors (FeatureCache) and delegates the epochs to the sharded Trainer;
// this file keeps only model construction, validation-driven model
// selection, and inference.
#pragma once

#include <memory>
#include <vector>

#include "core/metrics.h"
#include "dataset/dataset.h"
#include "gnn/models.h"
#include "train/fit_options.h"
#include "train/trainer.h"

namespace gnnhls {

/// How the knowledge-infused approach obtains resource-type bits at
/// inference time. kSelfInferred is the paper's deployment path; kOracle
/// feeds ground-truth bits instead and upper-bounds what a perfect
/// node-classifier would buy (used by the hierarchy ablation bench).
enum class InfusedInference { kSelfInferred, kOracle };

class QorPredictor {
 public:
  QorPredictor(Approach approach, ModelConfig model_cfg, TrainConfig train_cfg,
               InfusedInference infused = InfusedInference::kSelfInferred);

  /// Trains (classifier first for -I, then regressor) on samples[split.train]
  /// for one metric, from a fresh init seeded by TrainConfig::seed.
  /// Validation MAPE over samples[split.val] runs per epoch, and the best
  /// epoch's parameters are restored at the end.
  FitReport fit(const std::vector<Sample>& samples, const SplitIndices& split,
                Metric metric, const FitOptions& opts);

  /// Decoded QoR prediction for one sample (for -I, runs hierarchical
  /// inference: classifier -> annotated features -> regressor).
  double predict(const Sample& sample) const;

  /// Batched inference: one GraphBatch disjoint union over all of `samples`,
  /// one regressor forward, decoded predictions returned in input order.
  /// Bit-identical to calling predict() per sample — the union introduces no
  /// cross-graph edges and the segment readout pools each member's rows in
  /// the same order as the single-graph path, so per-member float
  /// trajectories are exactly those of the solo forward (asserted across all
  /// 14 encoder kinds in serve_test/batch_test).
  ///
  /// Thread safety: const and safe to call concurrently from many threads
  /// after fit() returns (forward builds a private tape; feature matrices
  /// come from the internally synchronized FeatureCache). This is the
  /// serving batcher's one entry point into the model. Callers control the
  /// batch size by slicing: each call is a single forward pass.
  std::vector<double> predict_many(
      const std::vector<const Sample*>& samples) const;

  /// MAPE over an index subset. With batch_size > 1 the regressor runs on
  /// GraphBatch unions of that many samples per tape. Feature matrices come
  /// from the process-wide FeatureCache, so per-epoch validation and bench
  /// tables stop rebuilding identical tensors per call.
  double evaluate_mape(const std::vector<Sample>& samples,
                       const std::vector<int>& idx) const;

  Approach approach() const { return approach_; }
  Metric metric() const { return metric_; }

  /// Trained regressor (valid after fit; determinism tests snapshot its
  /// parameters).
  const GraphRegressor& regressor() const { return *regressor_; }

 private:
  /// True when inference features are a pure function of the sample (cached
  /// globally); false on the hierarchical self-inferred path, whose
  /// features depend on the trained classifier.
  bool pure_inference_features() const;

  /// Hierarchical (-I self-inferred) inference features: classifier bits
  /// replace the ground-truth type annotations.
  Matrix infused_features(const Sample& s) const;

  void fit_classifier(const std::vector<Sample>& samples,
                      const std::vector<int>& train_idx);

  Approach approach_;
  ModelConfig model_cfg_;
  TrainConfig train_cfg_;
  InfusedInference infused_;
  Metric metric_ = Metric::kLut;
  std::unique_ptr<NodeClassifier> classifier_;  // only for -I
  std::unique_ptr<GraphRegressor> regressor_;
};

// ----- node-level classification (paper Table 3) -----

struct NodeClassifierScores {
  // accuracy per binary task, paper column order
  double dsp = 0.0;
  double lut = 0.0;
  double ff = 0.0;
};

class NodeTypePredictor {
 public:
  NodeTypePredictor(ModelConfig model_cfg, TrainConfig train_cfg);

  /// Trains on samples[split.train] from a fresh init and restores the
  /// epoch with the highest validation mean accuracy.
  /// FitReport::val_curve carries the per-epoch mean accuracy.
  FitReport fit(const std::vector<Sample>& samples, const SplitIndices& split,
                const FitOptions& opts);

  NodeClassifierScores evaluate(const std::vector<Sample>& samples,
                                const std::vector<int>& idx) const;

  const NodeClassifier& classifier() const { return *classifier_; }

 private:
  ModelConfig model_cfg_;
  TrainConfig train_cfg_;
  std::unique_ptr<NodeClassifier> classifier_;
};

// ----- parameter snapshot/restore for best-epoch selection -----

std::vector<Matrix> snapshot_parameters(const Module& m);
void restore_parameters(Module& m, const std::vector<Matrix>& snap);

}  // namespace gnnhls
