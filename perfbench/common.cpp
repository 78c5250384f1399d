#include "common.h"

#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <thread>

#include "dse/explorer.h"
#include "gnn/graph_batch.h"
#include "hls/hls_flow.h"
#include "train/batch_plan.h"
#include "train/feature_cache.h"

namespace gnnhls::perfbench {

namespace {
const std::chrono::steady_clock::time_point kOrigin =
    std::chrono::steady_clock::now();
}  // namespace

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kOrigin)
      .count();
}

void sleep_until_s(double t_s) {
  std::this_thread::sleep_until(
      kOrigin + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(t_s)));
}

Dist dist(std::vector<double> v) {
  Dist d;
  if (v.empty()) return d;
  std::sort(v.begin(), v.end());
  const auto rank = [&v](double p) {
    const std::size_t i = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(v.size())));
    return v[std::min(v.size() - 1, i == 0 ? 0 : i - 1)];
  };
  d.n = v.size();
  for (double x : v) d.sum += x;
  d.mean = d.sum / static_cast<double>(v.size());
  d.p50 = rank(0.50);
  d.p99 = rank(0.99);
  d.max = v.back();
  return d;
}

double median(std::vector<double> v) { return dist(std::move(v)).p50; }

void LayerTimes::add(const std::string& name, double us) {
  const std::lock_guard<std::mutex> lock(mu_);
  times_[name].push_back(us);
}

std::vector<double> LayerTimes::get(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = times_.find(name);
  return it == times_.end() ? std::vector<double>{} : it->second;
}

double LayerTimes::sum_us(const std::string& name) const {
  double s = 0.0;
  for (double x : get(name)) s += x;
  return s;
}

void Report::e2e(const std::string& name, double value,
                 const std::string& unit) {
  if (!trace_) metrics_.push_back(Metric{name, value, unit});
}

void Report::layer(const std::string& name, double value,
                   const std::string& unit) {
  if (trace_) metrics_.push_back(Metric{name, value, unit});
}

void Report::layer_timed(const std::string& name,
                         const std::vector<double>& us) {
  const Dist d = dist(us);
  layer(name + ".n", static_cast<double>(d.n), "count");
  layer(name + ".sum_ms", d.sum / 1e3, "ms");
  layer(name + ".p50_us", d.p50, "us");
  layer(name + ".p99_us", d.p99, "us");
}

void Report::phase(const std::string& name, std::uint64_t attempted,
                   std::uint64_t failed) {
  std::cout << "phase " << name << ": attempted " << attempted
            << ", succeeded " << (attempted - failed) << ", failed " << failed
            << "\n";
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0) correct_ = false;
}

void Report::check(const std::string& what, bool ok) {
  std::cout << (ok ? "check [PASS] " : "check [FAIL] ") << what << "\n";
  if (!ok) correct_ = false;
}

void Report::stamp(const std::string& key, const std::string& value) {
  stamps_.emplace_back(key, value);
}

void Report::stamp(const std::string& key, double value) {
  std::ostringstream os;
  os << std::setprecision(12) << value;
  stamps_.emplace_back(key, os.str());
}

void Report::attribution(const std::string& mode, double base_ms,
                         const std::vector<std::string>& spans,
                         const std::map<std::string, double>& parts_ms) {
  std::ostringstream os;
  os << std::setprecision(17) << "{\"mode\": \"" << mode
     << "\", \"base_ms\": " << base_ms << ", \"spans\": [";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    os << (i ? ", " : "") << '"' << spans[i] << '"';
  }
  os << "], \"parts_ms\": {";
  bool first = true;
  for (const auto& [name, ms] : parts_ms) {
    os << (first ? "" : ", ") << '"' << name << "\": " << ms;
    first = false;
  }
  os << "}}";
  attribution_ = os.str();
}

void Report::print() const {
  for (const auto& [k, v] : stamps_) {
    std::cout << "stamp " << k << " = " << v << "\n";
  }
  if (!attribution_.empty()) {
    std::cout << "perfbench-attribution " << attribution_ << "\n";
  }
  std::ostringstream os;
  os << std::setprecision(17);
  os << "{\"correct\": " << (correct_ ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    // JSON has no NaN/inf; a layer with nothing to measure reads 0.
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    os << (i ? ", " : "") << '"' << m.name << "\": {\"value\": " << v
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

namespace {

/// The CPU brand string, read with the cpuid instruction (no file access).
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned int leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                  &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]);
    }
    char brand[sizeof regs + 1] = {};
    std::memcpy(brand, regs, sizeof regs);
    std::string s(brand);
    const std::size_t first = s.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first);
  }
#endif
  return "unknown";
}

}  // namespace

void stamp_run(Report& rep, const Args& args, int pool_width, int workers) {
  rep.stamp("workload", args.workload);
  rep.stamp("seed", std::to_string(args.seed));
  rep.stamp("nproc",
            std::to_string(std::thread::hardware_concurrency()));
  rep.stamp("cpu", cpu_model());
  rep.stamp("kernel_pool_width", std::to_string(pool_width));
  rep.stamp("serving_workers", std::to_string(workers));
#ifdef NDEBUG
  rep.stamp("build", "optimized (NDEBUG)");
#else
  rep.stamp("build", "debug (asserts on)");
#endif
  rep.stamp("traced", args.trace ? "yes" : "no");
  const FeatureCache& fc = FeatureCache::global();
  rep.stamp("feature_cache.entries_end", static_cast<double>(fc.entries()));
  rep.stamp("feature_cache.hits_end", static_cast<double>(fc.hits()));
  rep.stamp("feature_cache.misses_end", static_cast<double>(fc.misses()));
  rep.stamp("batch_core_cache.hits_end",
            static_cast<double>(BatchCoreCache::global().hits()));
  rep.stamp("batch_core_cache.misses_end",
            static_cast<double>(BatchCoreCache::global().misses()));
  rep.stamp("peak_rss_mb", peak_rss_mb());
  rep.layer("cache.feature_entries_end", static_cast<double>(fc.entries()),
            "count");
  rep.layer("cache.feature_hits_end", static_cast<double>(fc.hits()), "count");
  rep.layer("cache.feature_misses_end", static_cast<double>(fc.misses()),
            "count");
}

void clear_caches() {
  FeatureCache::global().clear();
  BatchCoreCache::global().clear();
}

double repeated_setup(int reps, const std::function<void()>& setup) {
  std::vector<double> secs;
  for (int r = 0; r < reps; ++r) {
    clear_caches();
    const double t0 = now_s();
    setup();
    secs.push_back(now_s() - t0);
  }
  std::cout << "setup: " << reps << " repetitions, median "
            << median(secs) << " s\n";
  return median(secs);
}

std::vector<Sample> make_corpus(GraphKind kind, int n, std::uint64_t seed,
                                const ProgenConfig& progen) {
  SyntheticDatasetConfig dc;
  dc.kind = kind;
  dc.num_graphs = n;
  dc.seed = seed;
  dc.progen = progen;
  return build_synthetic_dataset(dc);
}

ModelConfig bench_model() {
  ModelConfig mc;
  mc.kind = GnnKind::kRgcn;
  mc.hidden = 32;
  mc.layers = 3;
  return mc;
}

double heldout_mape(const QorPredictor& model, GraphKind kind,
                    std::uint64_t seed) {
  constexpr int kHeldOut = 400;
  const std::vector<Sample> held = make_corpus(kind, kHeldOut, seed * 1000 + 9);
  return 100.0 * model.evaluate_mape(held, all_indices(kHeldOut));
}

QueryProbe query_probe(const QorPredictor& model,
                       const std::vector<const Sample*>& samples,
                       std::size_t min_queries, double min_seconds) {
  QueryProbe p;
  std::vector<double> expected;
  expected.reserve(samples.size());
  for (const Sample* s : samples) expected.push_back(model.predict(*s));
  const double start = now_s();
  for (std::size_t i = 0;
       p.attempted < min_queries || now_s() - start < min_seconds; ++i) {
    const std::size_t k = i % samples.size();
    if (model.predict(*samples[k]) != expected[k]) ++p.failed;
    ++p.attempted;
  }
  p.queries_per_s = static_cast<double>(p.attempted) / (now_s() - start);
  return p;
}

DseProbe dse_probe(const QorPredictor& lut, const QorPredictor* ff,
                   double min_seconds) {
  DseProbe p;
  const DesignSpace space =
      make_kernel_design_space("gemm", grid_with_at_least(240));
  ModelTable table;
  table.add(Metric::kLut, &lut);
  DseConfig cfg;
  cfg.top_k = std::max(1, static_cast<int>(space.size()) / 4);
  if (ff != nullptr) {
    table.add(Metric::kFf, ff);
  } else {
    cfg.front_metrics = {Metric::kLut};
  }
  const PredictorScorer scorer(std::move(table));
  std::vector<double> rates;
  const double start = now_s();
  while (rates.size() < 3 || now_s() - start < min_seconds) {
    const double t0 = now_s();
    const Explorer ex(space, scorer, cfg);
    const DseResult res = ex.successive_halving();
    rates.push_back(static_cast<double>(space.size()) / (now_s() - t0));
    ++p.attempted;
    if (res.hls_runs != cfg.top_k) ++p.failed;
  }
  p.cand_per_s = median(rates);
  return p;
}

void predict_many_probe(const QorPredictor& model,
                        const std::vector<const Sample*>& samples, int batch,
                        int calls, LayerTimes& times,
                        const std::string& name) {
  const std::size_t b = static_cast<std::size_t>(batch);
  if (samples.size() < b) return;
  (void)model.predict_many(samples);  // warm the feature cache
  std::vector<const Sample*> slice(b);
  for (int c = 0; c < calls; ++c) {
    const std::size_t base = (static_cast<std::size_t>(c) * b) %
                             (samples.size() - b + 1);
    std::copy(samples.begin() + static_cast<std::ptrdiff_t>(base),
              samples.begin() + static_cast<std::ptrdiff_t>(base + b),
              slice.begin());
    times.time(name, [&] { return model.predict_many(slice); });
  }
}

void gnn_probe(const std::vector<const Sample*>& samples, int batch,
               LayerTimes& times) {
  for (const Sample* s : samples) {
    times.time("gnn.feature_build", [&] {
      return InputFeatureBuilder::build(s->graph(),
                                        Approach::kKnowledgeInfused);
    });
  }
  std::vector<const GraphTensors*> parts;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    parts.push_back(&samples[i]->tensors);
    if (parts.size() == static_cast<std::size_t>(batch) ||
        i + 1 == samples.size()) {
      times.time("gnn.batch_build", [&] { return GraphBatch::build(parts); });
      parts.clear();
    }
  }
}

void hls_probe(const std::vector<Sample>& samples, std::size_t max_n,
               LayerTimes& times) {
  for (std::size_t i = 0; i < std::min(max_n, samples.size()); ++i) {
    LoweredProgram prog = samples[i].prog;
    times.time("hls.synth", [&] { return run_hls_flow(prog, HlsConfig{}); });
  }
}

}  // namespace gnnhls::perfbench
