#include "gnn/mp_executor.h"

namespace gnnhls {

Var mp_aggregate_sum(Tape& t, const GraphTensors& gt, const Var& x) {
  if (gt.src.empty()) return t.affine(x, 0.0F, 0.0F);
  return t.scatter_add_rows(t.gather_rows(x, gt.src, gt.src_part), gt.dst,
                            gt.num_nodes, gt.dst_part);
}

Var mp_aggregate_mean(Tape& t, const GraphTensors& gt, const Var& x) {
  if (gt.src.empty()) return t.affine(x, 0.0F, 0.0F);
  return t.segment_mean(t.gather_rows(x, gt.src, gt.src_part), gt.dst,
                        gt.num_nodes, gt.dst_part);
}

Var mp_gcn_propagate(Tape& t, const GraphTensors& gt, const Var& x) {
  // Self term first: fixes the order the backward accumulates into x's sink.
  Var self = t.scale_rows(x, gt.gcn_self_coeff);
  if (gt.src.empty()) return self;
  const Var msgs =
      t.scale_rows(t.gather_rows(x, gt.src, gt.src_part), gt.gcn_coeff);
  return t.add(
      t.scatter_add_rows(msgs, gt.dst, gt.num_nodes, gt.dst_part), self);
}

Var mp_relational_aggregate(
    Tape& t, const GraphTensors& gt, const Var& h,
    const std::vector<std::unique_ptr<Linear>>& rel_lins, bool mean_normalize) {
  const bool have_views = gt.relation_src.size() == gt.relation_edges.size() &&
                          gt.relation_dst.size() == gt.relation_edges.size();
  Var acc;
  bool first = true;
  for (std::size_t r = 0; r < gt.relation_edges.size(); ++r) {
    const auto& edge_ids = gt.relation_edges[r];
    if (edge_ids.empty()) continue;
    // Endpoint views: the caches built by build_partitions(), or a local
    // rebuild for hand-assembled GraphTensors.
    std::vector<int> local_src, local_dst;
    const std::vector<int>* srcs = nullptr;
    const std::vector<int>* dsts = nullptr;
    SegmentPartitionPtr sp, dp;
    if (have_views && !gt.relation_src[r].empty()) {
      srcs = &gt.relation_src[r];
      dsts = &gt.relation_dst[r];
      sp = gt.relation_src_part[r];
      dp = gt.relation_dst_part[r];
    } else {
      local_src.reserve(edge_ids.size());
      local_dst.reserve(edge_ids.size());
      for (int e : edge_ids) {
        local_src.push_back(gt.src[static_cast<std::size_t>(e)]);
        local_dst.push_back(gt.dst[static_cast<std::size_t>(e)]);
      }
      srcs = &local_src;
      dsts = &local_dst;
    }
    const Linear& lin = *rel_lins[r];
    const Var msgs = lin.forward(t, t.gather_rows(h, *srcs, sp));
    const Var agg = mean_normalize
                        ? t.segment_mean(msgs, *dsts, gt.num_nodes, dp)
                        : t.scatter_add_rows(msgs, *dsts, gt.num_nodes, dp);
    acc = first ? agg : t.add(acc, agg);
    first = false;
  }
  if (first) return t.affine(h, 0.0F, 0.0F);
  return acc;
}

}  // namespace gnnhls
