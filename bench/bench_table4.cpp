// Reproduces paper Table 4: MAPE of the three proposed approaches
// (off-the-shelf, knowledge-infused "-I", knowledge-rich "-R") with
// RGCN and PNA backbones on the DFG and CDFG datasets.
//
// Paper shape: for each backbone and metric,
//   knowledge-rich (-R)  <  knowledge-infused (-I)  <  off-the-shelf,
// i.e. more domain knowledge -> lower error, with -I recovering most of
// the -R gain while keeping earliest-stage inference.
#include <array>
#include <map>

#include "bench_common.h"

namespace gnnhls::bench {
namespace {

// Paper Table 4 reference: rows RGCN/RGCN-I/RGCN-R/PNA/PNA-I/PNA-R,
// columns DFG{DSP,LUT,FF,CP} CDFG{...}.
const std::map<std::string, std::array<double, 8>> kPaperT4 = {
    {"RGCN", {0.1327, 0.1303, 0.1509, 0.0614, 0.1503, 0.2633, 0.2552, 0.0872}},
    {"RGCN-I", {0.1060, 0.1025, 0.1247, 0.0570, 0.1265, 0.2055, 0.1901, 0.0678}},
    {"RGCN-R", {0.0886, 0.0858, 0.1018, 0.0491, 0.1098, 0.1406, 0.1665, 0.0546}},
    {"PNA", {0.1265, 0.1164, 0.1441, 0.0626, 0.1471, 0.2286, 0.2647, 0.0887}},
    {"PNA-I", {0.0826, 0.0510, 0.0758, 0.0551, 0.1039, 0.1412, 0.1642, 0.0654}},
    {"PNA-R", {0.0706, 0.0402, 0.0578, 0.0539, 0.0895, 0.1027, 0.1122, 0.0581}},
};

constexpr std::array<Approach, 3> kApproaches = {
    Approach::kOffTheShelf, Approach::kKnowledgeInfused,
    Approach::kKnowledgeRich};

int run(int argc, const char* const* argv) {
  const BenchConfig cfg = parse_bench_config(argc, argv);
  print_header(
      "Table 4 — three approaches (base/-I/-R) with RGCN/PNA backbones",
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

  const std::vector<GnnKind> backbones = {GnnKind::kRgcn, GnnKind::kPna};
  // results[backbone][approach][dataset][metric]
  double results[2][3][2][4] = {};

  std::vector<std::function<void()>> jobs;
  for (std::size_t b = 0; b < backbones.size(); ++b) {
    for (std::size_t a = 0; a < kApproaches.size(); ++a) {
      for (int ds = 0; ds < 2; ++ds) {
        for (int m = 0; m < kNumMetrics; ++m) {
          jobs.push_back([&, b, a, ds, m] {
            ExperimentSpec spec;
            spec.kind = backbones[b];
            spec.approach = kApproaches[a];
            spec.metric = static_cast<Metric>(m);
            spec.model = model_config(cfg);
            spec.train = train_config(cfg);
            spec.protocol = protocol(cfg);
            const auto& samples = ds == 0 ? dfg : cdfg;
            const auto& split = ds == 0 ? dfg_split : cdfg_split;
            results[b][a][ds][m] =
                run_regression_experiment(spec, samples, split).test_mape;
          });
        }
      }
    }
  }
  run_parallel(std::move(jobs), cfg.threads);

  TextTable table({"model", "DFG DSP", "DFG LUT", "DFG FF", "DFG CP",
                   "CDFG DSP", "CDFG LUT", "CDFG FF", "CDFG CP"});
  BenchJsonLog json_log;
  for (std::size_t b = 0; b < backbones.size(); ++b) {
    for (std::size_t a = 0; a < kApproaches.size(); ++a) {
      const std::string model_name =
          gnn_kind_name(backbones[b]) + approach_suffix(kApproaches[a]);
      std::vector<std::string> row{model_name};
      for (int ds = 0; ds < 2; ++ds) {
        for (int m = 0; m < kNumMetrics; ++m) {
          row.push_back(TextTable::pct(results[b][a][ds][m]));
          json_log.add(model_name + (ds == 0 ? " DFG " : " CDFG ") +
                           metric_name(static_cast<Metric>(m)),
                       results[b][a][ds][m], "mape");
        }
      }
      table.add_row(std::move(row));
    }
  }
  std::cout << "\nMeasured (this substrate):\n" << table.to_string();

  TextTable ref({"model", "DFG DSP", "DFG LUT", "DFG FF", "DFG CP",
                 "CDFG DSP", "CDFG LUT", "CDFG FF", "CDFG CP"});
  for (std::size_t b = 0; b < backbones.size(); ++b) {
    for (std::size_t a = 0; a < kApproaches.size(); ++a) {
      const std::string name =
          gnn_kind_name(backbones[b]) + approach_suffix(kApproaches[a]);
      std::vector<std::string> row{name};
      for (double v : kPaperT4.at(name)) row.push_back(TextTable::pct(v));
      ref.add_row(std::move(row));
    }
  }
  std::cout << "\nPaper reference:\n" << ref.to_string();

  ShapeChecks checks;
  for (std::size_t b = 0; b < backbones.size(); ++b) {
    // Average each approach over datasets x metrics.
    std::array<double, 3> avg{};
    for (std::size_t a = 0; a < 3; ++a) {
      for (int ds = 0; ds < 2; ++ds) {
        for (int m = 0; m < kNumMetrics; ++m) {
          avg[a] += results[b][a][ds][m] / 8.0;
        }
      }
    }
    const std::string base = gnn_kind_name(backbones[b]);
    checks.check(base + ": knowledge infusion helps (-I < base)",
                 avg[1] < avg[0]);
    checks.check(base + ": rich knowledge is the accuracy upper bound "
                        "(-R < base)",
                 avg[2] < avg[0]);
    checks.check(base + ": -R <= -I (late info still wins)",
                 avg[2] <= avg[1] + 0.01);
  }
  checks.summary();
  checks.add_to(json_log);
  write_bench_json(cfg, json_log, "table4");
  std::cout << "total wall time: " << TextTable::num(total.seconds(), 1)
            << "s\n";
  return 0;
}

}  // namespace
}  // namespace gnnhls::bench

int main(int argc, char** argv) { return gnnhls::bench::run(argc, argv); }
