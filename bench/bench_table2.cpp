// Reproduces paper Table 2: MAPE of graph-level regression with 14 GNN
// models (off-the-shelf approach) on the DFG and CDFG datasets.
//
// Paper shape to reproduce:
//   * CDFG errors exceed DFG errors (loops + control nodes confuse
//     message passing, §5.2),
//   * PNA and RGCN are the top performers (multi-aggregator + relational
//     information),
//   * SGC (linear) and GAT trail the field,
//   * CP error is small and consistent across datasets (local property).
#include <array>
#include <map>

#include "bench_common.h"

namespace gnnhls::bench {
namespace {

// Paper Table 2 reference values (MAPE, fraction), order: DSP LUT FF CP.
const std::map<std::string, std::array<std::array<double, 4>, 2>> kPaperT2 = {
    //            DFG                                  CDFG
    {"GCN", {{{0.1631, 0.1649, 0.2127, 0.0612}, {0.2530, 0.2864, 0.3834, 0.0879}}}},
    {"GCN-V", {{{0.1572, 0.1593, 0.2164, 0.0636}, {0.1731, 0.3393, 0.3994, 0.0813}}}},
    {"SGC", {{{0.4212, 0.2393, 0.3061, 0.0792}, {0.4401, 0.6087, 0.5350, 0.1032}}}},
    {"SAGE", {{{0.1518, 0.1401, 0.1711, 0.0612}, {0.1701, 0.2809, 0.3911, 0.0825}}}},
    {"ARMA", {{{0.1912, 0.1346, 0.1687, 0.0650}, {0.1847, 0.2521, 0.3215, 0.0842}}}},
    {"PAN", {{{0.1524, 0.1413, 0.1723, 0.0638}, {0.1688, 0.3265, 0.4436, 0.0854}}}},
    {"GIN", {{{0.1552, 0.1610, 0.2208, 0.0658}, {0.1547, 0.2848, 0.3882, 0.0876}}}},
    {"GIN-V", {{{0.1504, 0.1617, 0.2309, 0.0640}, {0.1794, 0.2940, 0.4864, 0.0859}}}},
    {"PNA", {{{0.1265, 0.1164, 0.1441, 0.0626}, {0.1471, 0.2286, 0.2647, 0.0887}}}},
    {"GAT", {{{0.2622, 0.2264, 0.2774, 0.0830}, {0.2866, 0.4619, 0.5473, 0.1032}}}},
    {"GGNN", {{{0.1540, 0.1364, 0.1694, 0.0647}, {0.1628, 0.2805, 0.3188, 0.0850}}}},
    {"RGCN", {{{0.1327, 0.1303, 0.1509, 0.0614}, {0.1503, 0.2633, 0.2552, 0.0872}}}},
    {"UNet", {{{0.1840, 0.1490, 0.1917, 0.0661}, {0.1892, 0.3283, 0.5306, 0.0902}}}},
    {"FiLM", {{{0.2005, 0.1250, 0.1694, 0.0627}, {0.1742, 0.2697, 0.2735, 0.0867}}}},
};

struct Cell {
  double mape = 0.0;
};

int run(int argc, const char* const* argv) {
  const BenchConfig cfg = parse_bench_config(argc, argv);
  print_header("Table 2 — off-the-shelf MAPE, 14 GNNs x {DSP,LUT,FF,CP} x "
               "{DFG,CDFG}",
               cfg);

  Timer total;
  const std::vector<Sample> dfg = build_dfg(cfg);
  const std::vector<Sample> cdfg = build_cdfg(cfg);
  print_dataset_line("DFG ", dfg);
  print_dataset_line("CDFG", cdfg);
  const SplitIndices dfg_split =
      split_80_10_10(static_cast<int>(dfg.size()), cfg.seed);
  const SplitIndices cdfg_split =
      split_80_10_10(static_cast<int>(cdfg.size()), cfg.seed);

  const auto kinds = all_gnn_kinds();
  // results[dataset][kind][metric]
  std::array<std::vector<std::array<Cell, 4>>, 2> results;
  results[0].resize(kinds.size());
  results[1].resize(kinds.size());

  std::vector<std::function<void()>> jobs;
  for (int ds = 0; ds < 2; ++ds) {
    const std::vector<Sample>& samples = ds == 0 ? dfg : cdfg;
    const SplitIndices& split = ds == 0 ? dfg_split : cdfg_split;
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      for (int m = 0; m < kNumMetrics; ++m) {
        jobs.push_back([&, ds, k, m] {
          ExperimentSpec spec;
          spec.kind = kinds[k];
          spec.approach = Approach::kOffTheShelf;
          spec.metric = static_cast<Metric>(m);
          spec.model = model_config(cfg);
          spec.train = train_config(cfg);
          spec.protocol = protocol(cfg);
          results[static_cast<std::size_t>(ds)][k]
                 [static_cast<std::size_t>(m)]
                     .mape =
              run_regression_experiment(spec, samples, split).test_mape;
        });
      }
    }
  }
  run_parallel(std::move(jobs), cfg.threads);

  TextTable table({"model", "DFG DSP", "DFG LUT", "DFG FF", "DFG CP",
                   "CDFG DSP", "CDFG LUT", "CDFG FF", "CDFG CP"});
  BenchJsonLog json_log;
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    std::vector<std::string> row{gnn_kind_name(kinds[k])};
    for (int ds = 0; ds < 2; ++ds) {
      for (int m = 0; m < kNumMetrics; ++m) {
        const double mape = results[static_cast<std::size_t>(ds)][k]
                                   [static_cast<std::size_t>(m)]
                                       .mape;
        row.push_back(TextTable::pct(mape));
        json_log.add(std::string(gnn_kind_name(kinds[k])) + " " +
                         (ds == 0 ? "DFG " : "CDFG ") +
                         metric_name(static_cast<Metric>(m)),
                     mape, "mape");
      }
    }
    table.add_row(std::move(row));
  }
  std::cout << "\nMeasured (this substrate):\n" << table.to_string();

  TextTable ref({"model", "DFG DSP", "DFG LUT", "DFG FF", "DFG CP",
                 "CDFG DSP", "CDFG LUT", "CDFG FF", "CDFG CP"});
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    const auto& p = kPaperT2.at(gnn_kind_name(kinds[k]));
    std::vector<std::string> row{gnn_kind_name(kinds[k])};
    for (int ds = 0; ds < 2; ++ds) {
      for (int m = 0; m < 4; ++m) {
        row.push_back(TextTable::pct(
            p[static_cast<std::size_t>(ds)][static_cast<std::size_t>(m)]));
      }
    }
    ref.add_row(std::move(row));
  }
  std::cout << "\nPaper reference (Vitis on FPGA):\n" << ref.to_string();

  // ----- shape checks -----
  ShapeChecks checks;
  // 1. CDFG harder than DFG, averaged over models, per metric.
  for (int m = 0; m < kNumMetrics; ++m) {
    double dfg_avg = 0.0, cdfg_avg = 0.0;
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      dfg_avg += results[0][k][static_cast<std::size_t>(m)].mape;
      cdfg_avg += results[1][k][static_cast<std::size_t>(m)].mape;
    }
    checks.check("CDFG MAPE > DFG MAPE for " +
                     metric_name(static_cast<Metric>(m)) +
                     " (model average)",
                 cdfg_avg > dfg_avg);
  }
  // 2. Relational/multi-aggregator models (PNA, RGCN) in the top half.
  std::vector<std::pair<double, std::string>> ranking;
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    double avg = 0.0;
    for (int ds = 0; ds < 2; ++ds) {
      for (int m = 0; m < kNumMetrics; ++m) {
        avg += results[static_cast<std::size_t>(ds)][k]
                      [static_cast<std::size_t>(m)]
                          .mape;
      }
    }
    ranking.emplace_back(avg, gnn_kind_name(kinds[k]));
  }
  std::sort(ranking.begin(), ranking.end());
  const auto rank_of = [&](const std::string& name) {
    for (std::size_t i = 0; i < ranking.size(); ++i) {
      if (ranking[i].second == name) return static_cast<int>(i);
    }
    return -1;
  };
  checks.check("PNA ranks in the top half overall", rank_of("PNA") < 7);
  checks.check("RGCN ranks in the top half overall", rank_of("RGCN") < 7);
  checks.check("SGC ranks in the bottom third overall", rank_of("SGC") >= 9);
  // 3. CP is the easiest metric (smallest average error).
  std::array<double, 4> metric_avg{};
  for (int m = 0; m < kNumMetrics; ++m) {
    for (int ds = 0; ds < 2; ++ds) {
      for (std::size_t k = 0; k < kinds.size(); ++k) {
        metric_avg[static_cast<std::size_t>(m)] +=
            results[static_cast<std::size_t>(ds)][k]
                   [static_cast<std::size_t>(m)]
                       .mape;
      }
    }
  }
  checks.check("CP has the lowest average MAPE of all metrics",
               metric_avg[3] <= metric_avg[0] &&
                   metric_avg[3] <= metric_avg[1] &&
                   metric_avg[3] <= metric_avg[2]);
  checks.summary();
  checks.add_to(json_log);
  write_bench_json(cfg, json_log, "table2");
  std::cout << "best-to-worst overall:";
  for (const auto& [v, n] : ranking) std::cout << " " << n;
  std::cout << "\ntotal wall time: " << TextTable::num(total.seconds(), 1)
            << "s\n";
  return 0;
}

}  // namespace
}  // namespace gnnhls::bench

int main(int argc, char** argv) { return gnnhls::bench::run(argc, argv); }
