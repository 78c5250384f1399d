// Graph-level message-passing executor: the single entry point the encoder
// zoo routes its aggregation steps through.
//
// Every function is the composition of primitive tape ops
// (gather_rows -> [scale_rows | Linear] -> scatter_add / segment_mean) over
// the edge partitions cached on GraphTensors. The partitions only schedule
// the reductions (fixed ascending-edge order per destination), so values and
// gradients are bit-identical at any thread-pool width; hand-assembled
// GraphTensors without cached partitions take the same ops unpartitioned and
// produce the same values.
#pragma once

#include <memory>
#include <vector>

#include "gnn/graph_tensors.h"
#include "nn/layers.h"

namespace gnnhls {

/// out_v = sum_{(u,v) in E} x_u. Empty edge set yields zeros (shape of x).
Var mp_aggregate_sum(Tape& t, const GraphTensors& gt, const Var& x);

/// out_v = mean_{(u,v) in E} x_u; nodes without in-edges yield zeros.
Var mp_aggregate_mean(Tape& t, const GraphTensors& gt, const Var& x);

/// GCN propagation D^-1/2 (A+I) D^-1/2 x with the precomputed gcn_coeff /
/// gcn_self_coeff.
Var mp_gcn_propagate(Tape& t, const GraphTensors& gt, const Var& x);

/// Per-relation transformed aggregation (RGCN mean_normalize=true, GGNN
/// false): out_v += reduce_{(u,v) in E_r} W_r x_u over every non-empty
/// relation, using the relation endpoint views/partitions cached on gt
/// (rebuilt locally when absent).
Var mp_relational_aggregate(
    Tape& t, const GraphTensors& gt, const Var& h,
    const std::vector<std::unique_ptr<Linear>>& rel_lins, bool mean_normalize);

}  // namespace gnnhls
