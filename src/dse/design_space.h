// Design-space declaration and deterministic candidate enumeration.
//
// A DesignSpace is a knob grid (source-level unroll/bitwidth axes from
// suites/variants.h plus HlsConfig scheduler axes: clock period and clock
// uncertainty) over a parameterized kernel builder. enumerate() walks the
// grid in fixed row-major order (unroll outermost, uncertainty innermost)
// and assigns each DesignPoint its enumeration index — the identity every
// downstream structure (explorer candidate lists, Pareto fronts, halving
// survivor sets) is keyed by. Same grid + builder => byte-identical point
// sequence, regardless of threads (the dse/ determinism contract; asserted
// by tests/dse_test.cpp).
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "dataset/dataset.h"
#include "frontend/ast.h"
#include "hls/scheduler.h"

namespace gnnhls {

/// The explorable axes. Values are used in the order given; every
/// combination is one candidate.
struct KnobGrid {
  std::vector<int> unroll = {1, 2, 4, 8};
  std::vector<int> bitwidth = {8, 16, 32};
  // HlsConfig axes: scheduler knobs become explorable dimensions.
  std::vector<double> clock_ns = {10.0};
  std::vector<double> clock_uncertainty = {0.125};

  std::size_t size() const {
    return unroll.size() * bitwidth.size() * clock_ns.size() *
           clock_uncertainty.size();
  }
};

/// Deterministically grows the default grid (alternating extra bitwidths
/// and clock targets) until it holds at least `points` candidates. Throws
/// if `points` exceeds the largest supported grid (~240).
KnobGrid grid_with_at_least(int points);

/// One candidate implementation: a position in the grid.
struct DesignPoint {
  int index = -1;  // position in enumeration order
  int unroll = 1;
  int bitwidth = 32;
  HlsConfig hls;

  /// Stable human-readable id, e.g. "u4_w16_c10_q0.125".
  std::string label() const;
};

class DesignSpace {
 public:
  /// Builds the kernel AST for one design point (pure function of the
  /// point's knobs; see suites/variants.h).
  using Builder = std::function<Function(const DesignPoint&)>;

  DesignSpace(std::string kernel_name, Builder builder, KnobGrid grid);

  const std::string& kernel_name() const { return kernel_name_; }
  const KnobGrid& grid() const { return grid_; }
  std::size_t size() const { return grid_.size(); }

  /// All design points in fixed row-major grid order; point i has index i.
  std::vector<DesignPoint> enumerate() const;

  Function build(const DesignPoint& p) const { return builder_(p); }

  /// Lowers a point into a prediction-ready candidate Sample: CDFG +
  /// message-passing tensors, *without* running the HLS flow — truth stays
  /// zero until the explorer synthesizes the point. (Off-the-shelf and
  /// self-inferred knowledge-infused features are pure functions of the
  /// lowering, so predictors can score candidates that were never
  /// synthesized — the whole point of predictor-guided DSE.)
  Sample lower_candidate(const DesignPoint& p) const;

  /// Lowers every enumerated point, in enumeration order, across the
  /// process thread pool: slot i of the result is lower_candidate() of the
  /// point with index i, byte-identical regardless of pool width (each
  /// shard fills its own pre-sized slot).
  std::vector<Sample> lower_candidates() const;

 private:
  std::string kernel_name_;
  Builder builder_;
  KnobGrid grid_;
};

/// DesignSpace over one of the suites/variants.h kernels ("gemm", "fir",
/// "stencil"); throws on unknown names.
DesignSpace make_kernel_design_space(const std::string& kernel,
                                     KnobGrid grid = {});

}  // namespace gnnhls
