// Shared pieces of the repo benchmark program: command-line arguments, the
// result report (metrics, phases, exactness checks, stamps), sample
// statistics, thread-safe layer timers, corpus builders and the probes more
// than one workload runs.
//
// Every workload prints human-readable lines first and, as the very last
// line of stdout, one JSON object {"correct", "attempted", "failed",
// "metrics"}. Untraced runs report the end-to-end metrics, traced runs the
// per-layer ones (perfbench/run.py merges in the trace-span statistics).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

#include "core/predictor.h"
#include "dataset/dataset.h"

namespace gnnhls::perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // Chrome trace JSON path (traced runs)
};

/// Seconds on the steady clock since an arbitrary process-wide origin.
double now_s();
/// Sleeps until now_s() reads `t_s`.
void sleep_until_s(double t_s);
/// Microseconds elapsed since `t0` (a now_s() reading).
inline double us_since(double t0) { return (now_s() - t0) * 1e6; }

struct Dist {
  std::size_t n = 0;
  double sum = 0.0;
  double mean = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};
/// Nearest-rank percentiles of `v` (any unit; empty input gives zeros).
Dist dist(std::vector<double> v);
double median(std::vector<double> v);

/// Durations (microseconds) keyed by layer name; safe to add to from many
/// threads (trainer hooks run on shard workers).
class LayerTimes {
 public:
  void add(const std::string& name, double us);
  /// Times fn() once and records it under `name`.
  template <typename Fn>
  auto time(const std::string& name, Fn&& fn) {
    const double t0 = now_s();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      add(name, us_since(t0));
    } else {
      auto out = fn();
      add(name, us_since(t0));
      return out;
    }
  }
  std::vector<double> get(const std::string& name) const;
  double sum_us(const std::string& name) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::vector<double>> times_;
};

/// The run's result. End-to-end metrics are kept only in untraced runs and
/// per-layer ones only in traced runs, so each workload can report both
/// unconditionally and the printed set always matches the run mode.
class Report {
 public:
  explicit Report(bool trace) : trace_(trace) {}

  bool traced() const { return trace_; }
  void e2e(const std::string& name, double value, const std::string& unit);
  void layer(const std::string& name, double value, const std::string& unit);
  /// A timed call or span X: X.n, X.sum_ms, X.p50_us, X.p99_us.
  void layer_timed(const std::string& name, const std::vector<double>& us);
  /// One phase's operations; every failed one makes the run incorrect.
  void phase(const std::string& name, std::uint64_t attempted,
             std::uint64_t failed);
  /// An exactness check that is not itself an operation count.
  void check(const std::string& what, bool ok);
  void stamp(const std::string& key, const std::string& value);
  void stamp(const std::string& key, double value);
  /// Unattributed-time inputs for run.py (traced runs): `mode` is
  /// "per_request" (base and parts are per-request means) or "total".
  void attribution(const std::string& mode, double base_ms,
                   const std::vector<std::string>& spans,
                   const std::map<std::string, double>& parts_ms);

  /// Prints stamps, the attribution line and the final JSON line.
  void print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  bool trace_;
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> stamps_;
  std::string attribution_;
};

/// Peak resident set size of this process so far (getrusage), in MB.
double peak_rss_mb();

/// Machine fingerprint, pool widths, build type, seed and the process-wide
/// cache counters, stamped onto the report (call at the workload's end).
void stamp_run(Report& rep, const Args& args, int pool_width, int workers);

/// Clears the process-wide feature and batch-union caches, so a repeated
/// set-up or fit pays its cold costs again.
void clear_caches();

/// Runs `setup` `reps` times (caches cleared before each) and returns the
/// median wall time in seconds; the last repetition's state is kept.
double repeated_setup(int reps, const std::function<void()>& setup);

/// A seeded synthetic corpus of `n` graphs of `kind`.
std::vector<Sample> make_corpus(GraphKind kind, int n, std::uint64_t seed,
                                const ProgenConfig& progen = {});

/// The benchmark's model: RGCN, hidden 32, 3 layers.
ModelConfig bench_model();

/// TrainConfig::seed of every fit (initialisation, batch order, dropout).
/// It is configuration, not input: --seed varies the data a model is fitted
/// on and tested with, while a fixed initialisation keeps the test MAPE
/// from swinging with the initial weights.
inline constexpr std::uint64_t kInitSeed = 1;

/// Test MAPE in percent of `model` on a 400-graph held-out set of `kind`
/// generated from `seed` (disjoint generator seeds from every corpus).
double heldout_mape(const QorPredictor& model, GraphKind kind,
                    std::uint64_t seed);

/// Single-query throughput outside the serving tier: sequential predict()
/// over `samples` (round-robin) until at least `min_queries` answers and
/// `min_seconds` have passed. The serve_sat_rps analogue on workloads that
/// bypass serve/ (see README). Every answer is checked against the first
/// pass's; a mismatch counts as failed.
struct QueryProbe {
  double queries_per_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};
QueryProbe query_probe(const QorPredictor& model,
                       const std::vector<const Sample*>& samples,
                       std::size_t min_queries, double min_seconds);

/// Median candidates/s of successive-halving sweeps of the gemm design space
/// (at least 240 points, top_k = n/4) scored by `lut` (rank + front) and,
/// when given, `ff` (front) through the direct predict_many path — the
/// dse_cand_per_s analogue on train_fit, which bypasses dse/. Sweeps repeat
/// until at least three have run and `min_seconds` have passed; a sweep
/// whose synthesis budget is not exactly top_k counts as failed.
struct DseProbe {
  double cand_per_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};
DseProbe dse_probe(const QorPredictor& lut, const QorPredictor* ff,
                   double min_seconds);

/// Times predict_many over consecutive `batch`-sized slices of `samples`
/// (features warmed first, so the timings are the forward alone), adding
/// one duration per call to `times` under `name`.
void predict_many_probe(const QorPredictor& model,
                        const std::vector<const Sample*>& samples, int batch,
                        int calls, LayerTimes& times, const std::string& name);

/// Times InputFeatureBuilder::build and GraphBatch::build (groups of
/// `batch`) over `samples` into gnn.feature_build / gnn.batch_build.
void gnn_probe(const std::vector<const Sample*>& samples, int batch,
               LayerTimes& times);

/// Times run_hls_flow over up to `max_n` samples into hls.synth.
void hls_probe(const std::vector<Sample>& samples, std::size_t max_n,
               LayerTimes& times);

}  // namespace gnnhls::perfbench
