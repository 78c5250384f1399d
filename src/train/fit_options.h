// FitOptions / FitReport — the training entry-point contract.
//
// Every fit loop in the library (QorPredictor, NodeTypePredictor, Trainer)
// takes a FitOptions and returns a FitReport: the full validation curve,
// the selected epoch, and how much work actually ran. The epoch budget,
// seed and model-selection recipe all come from TrainConfig, so FitOptions
// currently carries no settable value; it stays the fit entry points'
// parameter type so call sites keep passing `FitOptions{}`.
//
// Determinism: a fit's trajectory is a pure function of (model init, data
// plan, TrainConfig) — nothing here depends on thread counts.
#pragma once

#include <limits>
#include <vector>

namespace gnnhls {

struct FitOptions {};

struct FitReport {
  /// Best validation score seen (MAPE for regressors — lower is better;
  /// mean accuracy for classifiers — higher is better).
  double best_val = std::numeric_limits<double>::quiet_NaN();
  /// Epoch index of best_val (0-based); -1 when no epoch ran.
  int best_epoch = -1;
  /// Epochs actually executed (the TrainConfig budget).
  int epochs_run = 0;
  /// Optimizer steps taken over all epochs.
  long steps = 0;
  /// Per-epoch validation trajectory, entry e = score after epoch e.
  std::vector<double> val_curve;
};

}  // namespace gnnhls
