// Reproduces paper Table 3: node-level resource-type classification
// accuracy for four GNN models on DFGs, CDFGs and real-case applications.
//
// Protocol: a model is trained per synthetic dataset; the "Real Case"
// column evaluates the CDFG-trained classifier on the 56 unseen suite
// kernels (real applications contain control flow, hence CDFG-shaped).
//
// Paper shape: high accuracy everywhere ("local neighborhood
// characterization is enough"), RGCN best on CDFG/real case.
#include <array>
#include <map>

#include "bench_common.h"

namespace gnnhls::bench {
namespace {

// Paper Table 3 reference (accuracy), per model: DFG{DSP,LUT,FF},
// CDFG{...}, Real{...}.
const std::map<std::string, std::array<double, 9>> kPaperT3 = {
    {"GCN", {0.9379, 0.8484, 0.8866, 0.8300, 0.7701, 0.6474, 0.7970, 0.8183, 0.8682}},
    {"SAGE", {0.9306, 0.8732, 0.9209, 0.8565, 0.7841, 0.6040, 0.8739, 0.8644, 0.5588}},
    {"GIN", {0.9380, 0.8493, 0.9157, 0.7924, 0.7305, 0.6578, 0.7470, 0.7553, 0.7224}},
    {"RGCN", {0.9391, 0.8713, 0.9152, 0.8580, 0.7846, 0.6892, 0.9082, 0.8883, 0.9155}},
};

int run(int argc, const char* const* argv) {
  const BenchConfig cfg = parse_bench_config(argc, argv);
  print_header(
      "Table 3 — node-level resource-type classification accuracy", cfg);

  Timer total;
  const std::vector<Sample> dfg = build_dfg(cfg);
  const std::vector<Sample> cdfg = build_cdfg(cfg);
  const std::vector<Sample> real = build_real_world();
  print_dataset_line("DFG ", dfg);
  print_dataset_line("CDFG", cdfg);
  print_dataset_line("Real", real);
  const SplitIndices dfg_split =
      split_80_10_10(static_cast<int>(dfg.size()), cfg.seed);
  const SplitIndices cdfg_split =
      split_80_10_10(static_cast<int>(cdfg.size()), cfg.seed);

  const std::vector<GnnKind> kinds = {GnnKind::kGcn, GnnKind::kSage,
                                      GnnKind::kGin, GnnKind::kRgcn};
  // scores[kind] = {DFG, CDFG, Real}
  std::vector<std::array<NodeClassifierScores, 3>> scores(kinds.size());

  std::vector<std::function<void()>> jobs;
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    jobs.push_back([&, k] {
      scores[k][0] = run_node_experiment(kinds[k], model_config(cfg),
                                         train_config(cfg), protocol(cfg),
                                         dfg, dfg_split)
                         .test;
    });
    jobs.push_back([&, k] {
      const NodeExperimentResult r = run_node_experiment(
          kinds[k], model_config(cfg), train_config(cfg), protocol(cfg),
          cdfg, cdfg_split, &real);
      scores[k][1] = r.test;
      scores[k][2] = r.transfer;
    });
  }
  run_parallel(std::move(jobs), cfg.threads);

  TextTable table({"model", "DFG DSP", "DFG LUT", "DFG FF", "CDFG DSP",
                   "CDFG LUT", "CDFG FF", "Real DSP", "Real LUT", "Real FF"});
  BenchJsonLog json_log;
  const char* score_sets[] = {"DFG", "CDFG", "Real"};
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    table.add_row({gnn_kind_name(kinds[k]),
                   TextTable::pct(scores[k][0].dsp),
                   TextTable::pct(scores[k][0].lut),
                   TextTable::pct(scores[k][0].ff),
                   TextTable::pct(scores[k][1].dsp),
                   TextTable::pct(scores[k][1].lut),
                   TextTable::pct(scores[k][1].ff),
                   TextTable::pct(scores[k][2].dsp),
                   TextTable::pct(scores[k][2].lut),
                   TextTable::pct(scores[k][2].ff)});
    for (int s = 0; s < 3; ++s) {
      const std::string base =
          std::string(gnn_kind_name(kinds[k])) + " " + score_sets[s] + " ";
      json_log.add(base + "DSP", scores[k][static_cast<std::size_t>(s)].dsp,
                   "acc");
      json_log.add(base + "LUT", scores[k][static_cast<std::size_t>(s)].lut,
                   "acc");
      json_log.add(base + "FF", scores[k][static_cast<std::size_t>(s)].ff,
                   "acc");
    }
  }
  std::cout << "\nMeasured (this substrate):\n" << table.to_string();

  TextTable ref({"model", "DFG DSP", "DFG LUT", "DFG FF", "CDFG DSP",
                 "CDFG LUT", "CDFG FF", "Real DSP", "Real LUT", "Real FF"});
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    const auto& p = kPaperT3.at(gnn_kind_name(kinds[k]));
    std::vector<std::string> row{gnn_kind_name(kinds[k])};
    for (double v : p) row.push_back(TextTable::pct(v));
    ref.add_row(std::move(row));
  }
  std::cout << "\nPaper reference:\n" << ref.to_string();

  ShapeChecks checks;
  const auto mean3 = [](const NodeClassifierScores& s) {
    return (s.dsp + s.lut + s.ff) / 3.0;
  };
  // High accuracy achievable on synthetic test sets.
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    checks.check(gnn_kind_name(kinds[k]) + " DFG mean accuracy > 80%",
                 mean3(scores[k][0]) > 0.80);
  }
  // DFG classification easier than CDFG (paper rows drop left to right).
  int dfg_easier = 0;
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    if (mean3(scores[k][0]) >= mean3(scores[k][1])) ++dfg_easier;
  }
  checks.check("DFG accuracy >= CDFG accuracy for most models",
               dfg_easier >= 3);
  // RGCN best on the real-case generalization column (paper's bold row).
  double rgcn_real = 0.0, best_other = 0.0;
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    const double v = mean3(scores[k][2]);
    if (gnn_kind_name(kinds[k]) == "RGCN") {
      rgcn_real = v;
    } else {
      best_other = std::max(best_other, v);
    }
  }
  checks.check("RGCN is best or near-best on real-case generalization",
               rgcn_real >= best_other - 0.03);
  checks.summary();
  checks.add_to(json_log);
  write_bench_json(cfg, json_log, "table3");
  std::cout << "total wall time: " << TextTable::num(total.seconds(), 1)
            << "s\n";
  return 0;
}

}  // namespace
}  // namespace gnnhls::bench

int main(int argc, char** argv) { return gnnhls::bench::run(argc, argv); }
