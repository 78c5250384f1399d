// Shared harness for the table-reproduction benches.
//
// Every bench binary accepts the same flags (--help prints
// print_bench_usage below) and defaults to a "smoke" scale that finishes in
// minutes on a laptop; --scale=full raises dataset/model sizes;
// --scale=paper documents the paper's configuration (40k programs, hidden
// 300, 5 layers, 100 epochs, 5 seeds — impractical without a cluster, but
// the code path is identical). Unknown flags print a warning to stderr and
// are otherwise ignored.
#pragma once

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.h"
#include "dataset/dataset.h"
#include "obs/obs_config.h"
#include "obs/trace.h"
#include "suites/suites.h"
#include "support/flags.h"
#include "support/parallel.h"
#include "support/table.h"
#include "support/timer.h"

namespace gnnhls::bench {

struct BenchConfig {
  int dfg_graphs = 200;
  int cdfg_graphs = 150;
  int hidden = 32;
  int layers = 3;
  int epochs = 35;
  float lr = 1e-2F;
  float dropout = 0.0F;
  int runs = 2;
  int keep_best = 1;
  int threads = 0;     // 0 = hardware_concurrency
  int batch_size = 1;  // graphs per SGD step (1 = legacy accumulation loop)
  int grad_accum = 1;  // batches merged per Adam step (gives shards work)
  // Serving knobs (bench_serving; see serve/scheduler.h SchedulerConfig).
  int max_batch = 8;            // graphs per serving forward pass
  int batch_window_us = 200;    // micro-batch collection window (int: the
                                // flag parser is int-wide; ~35min max)
  int clients = 8;              // concurrent submitter threads
  int requests = 64;            // requests per client thread
  // Open-loop saturation knobs (bench_serving; see serve/scheduler.h).
  double arrival_rate = 0.0;    // base offered load in requests/sec for the
                                // open-loop sweep (0 = auto: the measured
                                // sequential predict() capacity)
  int deadline_us = 0;          // per-request deadline for the open-loop
                                // sweep (0 = auto: 50x sequential us/graph)
  int priority = 0;             // priority attached to open-loop requests
  int workers = 0;              // shared-scheduler worker threads (0 = one
                                // per served metric: equal thread budget
                                // with the per-metric batcher baseline)
  // TCP endpoint knobs (bench_serving socket arm; see serve/tcp_endpoint.h).
  int port = 0;                 // loopback port for the socket arm (0 =
                                // ephemeral kernel-assigned)
  int max_inflight = 64;        // per-connection in-flight cap before the
                                // endpoint rejects with kOverConnectionLimit
  // DSE knobs (bench_dse; see dse/design_space.h + dse/explorer.h).
  int dse_points = 48;          // design-space size floor (grid_with_at_least)
  int dse_topk = 0;             // ground-truth budget (0 = max(1, points/4))
  // Observability knobs (src/obs/): --obs publishes serving/training
  // counters into MetricsRegistry::global() and arms span emission;
  // --trace-out additionally starts the TraceCollector and writes the
  // Chrome trace_event JSON to the given path at bench exit. Both are
  // execution-only (the bit-identity gates run with them on in CI).
  bool obs = false;
  std::string trace_out;
  std::uint64_t seed = 1;
  // Perf-trajectory artifact: when non-empty, the bench writes its result
  // table to this path as JSON (see BenchJsonLog; scripts/bench_compare.py
  // diffs two such artifacts).
  std::string json_path;
};

/// Every flag shared by the bench binaries, with defaults. Printed by
/// --help; unknown flags warn (see Flags::warn_unconsumed) instead of
/// aborting, so sweep scripts can pass a superset of flags across binaries.
inline void print_bench_usage(std::ostream& os) {
  os << "Shared bench flags (--name=value or --name value):\n"
        "  --help                 print this summary and exit\n"
        "  --scale=smoke|full|paper\n"
        "                         preset for dataset/model/epoch sizes\n"
        "                         (smoke: minutes on a laptop; paper is the\n"
        "                         documented DAC'22 configuration)\n"
        "  --dfg-graphs=N         synthetic DFG corpus size\n"
        "  --cdfg-graphs=N        synthetic CDFG corpus size\n"
        "  --hidden=N             GNN hidden width\n"
        "  --layers=N             GNN message-passing layers\n"
        "  --epochs=N             training epochs per fit\n"
        "  --lr=F                 Adam learning rate\n"
        "  --runs=N --best=K      repeat each fit N times, report best-K mean\n"
        "  --seed=N               base RNG seed (results are reproducible\n"
        "                         bit-for-bit at fixed seed/config)\n"
        "  --threads=N            bounds every parallelism layer: job-level\n"
        "                         run_parallel width, Trainer shards, kernel\n"
        "                         pool (1 = fully serial; 0 = hardware)\n"
        "  --batch-size=N         graphs per SGD step (1 = legacy\n"
        "                         accumulation loop; >1 = GraphBatch unions)\n"
        "  --grad-accum=N         mini-batches merged per Adam step\n"
        "serving flags (bench_serving):\n"
        "  --max-batch=N          graphs per serving forward pass (1\n"
        "                         disables micro-batching)\n"
        "  --batch-window-us=N    longest wait for co-batchable traffic\n"
        "  --clients=N            concurrent submitter threads\n"
        "  --requests=N           requests per client thread\n"
        "  --arrival-rate=R       open-loop base offered load, requests/sec\n"
        "                         (0 = measured sequential capacity; the\n"
        "                         sweep offers 0.5x/1x/2x/4x of this base)\n"
        "  --deadline-us=N        open-loop per-request deadline (0 = 50x\n"
        "                         the sequential us/graph; requests past it\n"
        "                         are shed by the scheduler arm)\n"
        "  --priority=N           priority attached to open-loop requests\n"
        "  --workers=N            shared-scheduler worker pool size (0 =\n"
        "                         one per metric, matching the per-metric\n"
        "                         batcher baseline's thread budget)\n"
        "  --port=N               loopback port for the TCP socket arm\n"
        "                         (0 = ephemeral)\n"
        "  --max-inflight=N       per-connection in-flight request cap of\n"
        "                         the TCP endpoint (over-limit requests are\n"
        "                         rejected on the wire, never queued)\n"
        "dse flags (bench_dse):\n"
        "  --dse-points=N         minimum design-space size (the knob grid\n"
        "                         grows deterministically to at least N)\n"
        "  --dse-topk=K           successive-halving ground-truth budget\n"
        "                         (0 = max(1, points/4), the 25% cap)\n"
        "perf tracking:\n"
        "  --json=PATH            also write the bench's result table to\n"
        "                         PATH as JSON (BENCH_<name>.json artifact;\n"
        "                         compare runs with scripts/bench_compare.py)\n"
        "observability:\n"
        "  --obs=0|1              publish serving/training counters into the\n"
        "                         process-wide metrics registry and arm span\n"
        "                         emission (execution-only; values unchanged)\n"
        "  --trace-out=PATH       capture scoped trace spans and write them\n"
        "                         to PATH as Chrome trace_event JSON (load in\n"
        "                         Perfetto; implies span emission)\n";
}

inline BenchConfig parse_bench_config(int argc, const char* const* argv) {
  const Flags flags(argc, argv);
  if (flags.has("help")) {
    print_bench_usage(std::cout);
    std::exit(0);
  }
  BenchConfig cfg;
  const std::string scale = flags.get_string("scale", "smoke");
  if (scale == "full") {
    cfg.dfg_graphs = 600;
    cfg.cdfg_graphs = 400;
    cfg.hidden = 64;
    cfg.layers = 4;
    cfg.epochs = 60;
    cfg.runs = 3;
    cfg.keep_best = 2;
  } else if (scale == "paper") {
    cfg.dfg_graphs = 19120;   // paper §3.2
    cfg.cdfg_graphs = 18570;  // paper §3.2
    cfg.hidden = 300;         // paper §5.1
    cfg.layers = 5;
    cfg.epochs = 100;
    cfg.runs = 5;
    cfg.keep_best = 3;
  } else if (scale != "smoke") {
    throw std::invalid_argument("--scale must be smoke|full|paper");
  }
  cfg.dfg_graphs = flags.get_int("dfg-graphs", cfg.dfg_graphs);
  cfg.cdfg_graphs = flags.get_int("cdfg-graphs", cfg.cdfg_graphs);
  cfg.hidden = flags.get_int("hidden", cfg.hidden);
  cfg.layers = flags.get_int("layers", cfg.layers);
  cfg.epochs = flags.get_int("epochs", cfg.epochs);
  cfg.lr = static_cast<float>(flags.get_double("lr", cfg.lr));
  cfg.runs = flags.get_int("runs", cfg.runs);
  cfg.keep_best = flags.get_int("best", cfg.keep_best);
  cfg.threads = flags.get_int("threads", cfg.threads);
  cfg.batch_size = flags.get_int("batch-size", cfg.batch_size);
  cfg.grad_accum = flags.get_int("grad-accum", cfg.grad_accum);
  cfg.max_batch = flags.get_int("max-batch", cfg.max_batch);
  cfg.batch_window_us = flags.get_int("batch-window-us", cfg.batch_window_us);
  cfg.clients = flags.get_int("clients", cfg.clients);
  cfg.requests = flags.get_int("requests", cfg.requests);
  cfg.arrival_rate = flags.get_double("arrival-rate", cfg.arrival_rate);
  cfg.deadline_us = flags.get_int("deadline-us", cfg.deadline_us);
  cfg.priority = flags.get_int("priority", cfg.priority);
  cfg.workers = flags.get_int("workers", cfg.workers);
  cfg.port = flags.get_int("port", cfg.port);
  cfg.max_inflight = flags.get_int("max-inflight", cfg.max_inflight);
  cfg.dse_points = flags.get_int("dse-points", cfg.dse_points);
  cfg.dse_topk = flags.get_int("dse-topk", cfg.dse_topk);
  cfg.json_path = flags.get_string("json", "");
  cfg.obs = flags.get_bool("obs", cfg.obs);
  cfg.trace_out = flags.get_string("trace-out", "");
  cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  flags.warn_unconsumed(std::cerr);
  if (cfg.threads <= 0) {
    cfg.threads = static_cast<int>(std::thread::hardware_concurrency());
    if (cfg.threads <= 0) cfg.threads = 4;
  }
  // --threads=N bounds every parallelism layer: job-level run_parallel
  // width, the Trainer's shard count (see train_config), and the kernel
  // thread pool. The table benches saturate cores with job-level
  // run_parallel(threads), so the kernel pool stays at one thread —
  // stacking row-parallel matmul or shard workers on top would
  // oversubscribe every core by up to threads x threads and hammer the
  // shared pool from every job at once; Trainer shards are numerics-neutral
  // by design, so they simply run inline on the one-thread pool. This also
  // pins --threads=1 to fully-serial kernels (deterministic single-job
  // timing); kernel- and shard-level parallelism is measured by bench_micro
  // (--threads there sizes the pool itself).
  ThreadPool::set_global_threads(1);
  tune_malloc_for_tensor_workloads();
  return cfg;
}

inline ModelConfig model_config(const BenchConfig& cfg) {
  ModelConfig mc;
  mc.hidden = cfg.hidden;
  mc.layers = cfg.layers;
  mc.dropout = cfg.dropout;
  return mc;
}

inline TrainConfig train_config(const BenchConfig& cfg) {
  TrainConfig tc;
  tc.epochs = cfg.epochs;
  tc.lr = cfg.lr;
  tc.batch_size = cfg.batch_size;
  tc.grad_accum = cfg.grad_accum;
  // Shard width follows --threads. Results are bit-identical at any shard
  // count (the Trainer's determinism contract), so this only decides where
  // epoch work may run, never what the tables report.
  tc.shards = cfg.threads;
  tc.seed = cfg.seed;
  tc.obs.metrics = cfg.obs;
  tc.obs.trace = cfg.obs || !cfg.trace_out.empty();
  return tc;
}

/// The ObsConfig the bench's --obs/--trace-out flags ask for: metrics go
/// global with --obs; spans are armed by either flag (--trace-out without
/// --obs still captures a trace).
inline ObsConfig obs_config(const BenchConfig& cfg) {
  ObsConfig oc;
  oc.metrics = cfg.obs;
  oc.trace = cfg.obs || !cfg.trace_out.empty();
  return oc;
}

/// Starts the process-wide TraceCollector when --trace-out was given.
/// Call once, before the instrumented work.
inline void maybe_start_trace(const BenchConfig& cfg) {
  if (cfg.trace_out.empty()) return;
  TraceCollector::global().clear();
  TraceCollector::global().start();
}

/// Stops the collector and writes the trace JSON (no-op without
/// --trace-out). Call after the instrumented work has quiesced.
inline void maybe_write_trace(const BenchConfig& cfg) {
  if (cfg.trace_out.empty()) return;
  TraceCollector::global().stop();
  if (TraceCollector::global().write_json(cfg.trace_out)) {
    std::cout << "wrote " << cfg.trace_out << " ("
              << TraceCollector::global().event_count() << " events, "
              << TraceCollector::global().dropped() << " dropped)\n";
  } else {
    std::cerr << "warning: cannot write --trace-out file " << cfg.trace_out
              << "\n";
  }
}

inline RunProtocol protocol(const BenchConfig& cfg) {
  return RunProtocol{cfg.runs, cfg.keep_best};
}

inline std::vector<Sample> build_dfg(const BenchConfig& cfg) {
  SyntheticDatasetConfig dc;
  dc.kind = GraphKind::kDfg;
  dc.num_graphs = cfg.dfg_graphs;
  dc.seed = cfg.seed * 10007 + 1;
  return build_synthetic_dataset(dc);
}

inline std::vector<Sample> build_cdfg(const BenchConfig& cfg) {
  SyntheticDatasetConfig dc;
  dc.kind = GraphKind::kCdfg;
  dc.num_graphs = cfg.cdfg_graphs;
  dc.seed = cfg.seed * 10007 + 2;
  return build_synthetic_dataset(dc);
}

inline std::vector<Sample> build_real_world() {
  std::vector<Sample> samples;
  for (const SuiteProgram& p : all_real_world()) {
    samples.push_back(make_sample(p.func, GraphKind::kCdfg, HlsConfig{},
                                  p.suite + "/" + p.name));
  }
  return samples;
}

inline void print_dataset_line(const std::string& name,
                               const std::vector<Sample>& samples) {
  const DatasetStats st = compute_stats(samples);
  std::cout << "  " << name << ": " << st.graphs << " graphs, avg "
            << TextTable::num(st.avg_nodes, 1) << " nodes / "
            << TextTable::num(st.avg_edges, 1)
            << " edges, avg QoR [DSP " << TextTable::num(st.avg_metric[0], 1)
            << ", LUT " << TextTable::num(st.avg_metric[1], 0) << ", FF "
            << TextTable::num(st.avg_metric[2], 0) << ", CP "
            << TextTable::num(st.avg_metric[3], 2) << "ns]\n";
}

inline void print_header(const std::string& title, const BenchConfig& cfg) {
  std::cout << "==================================================\n"
            << title << "\n"
            << "==================================================\n"
            << "config: hidden=" << cfg.hidden << " layers=" << cfg.layers
            << " epochs=" << cfg.epochs << " runs=" << cfg.runs << "/best-"
            << cfg.keep_best << " threads=" << cfg.threads
            << " seed=" << cfg.seed << "\n";
}

/// Machine-readable result log: the perf-trajectory half of every bench.
/// Benches add one entry per measured number (same rows their TextTable
/// prints) and write_bench_json emits a `BENCH_<name>.json` artifact that
/// scripts/bench_compare.py can diff against a committed baseline. Units
/// ending in "/s" (graphs/s, cand/s, items/s) are treated as higher-is-
/// better by the comparer; everything else (s, us, ns) as lower-is-better.
class BenchJsonLog {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back(Entry{name, value, unit});
  }

  /// Writes {"bench": ..., "entries": [{name, value, unit}...]}.
  void write(std::ostream& os, const std::string& bench_name) const {
    os.precision(12);
    os << "{\n  \"bench\": \"" << escape(bench_name)
       << "\",\n  \"entries\": [";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (i > 0) os << ',';
      os << "\n    {\"name\": \"" << escape(entries_[i].name)
         << "\", \"value\": " << entries_[i].value << ", \"unit\": \""
         << escape(entries_[i].unit) << "\"}";
    }
    os << "\n  ]\n}\n";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };

  static std::string escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  std::vector<Entry> entries_;
};

/// Records shape-of-result checks ("who wins, by roughly what factor") and
/// prints a PASS/MISS summary. The table benches report only (paper-shape
/// expectations legitimately MISS at smoke scale, so their main() ignores
/// the results); a bench may gate its exit code on the subset of its checks
/// that are hard invariants (bench_serving exits 1 on a bit-identity
/// violation but keeps its load-dependent perf checks report-only).
class ShapeChecks {
 public:
  void check(const std::string& what, bool ok) {
    std::cout << (ok ? "  [PASS] " : "  [MISS] ") << what << "\n";
    ++total_;
    if (ok) ++passed_;
  }
  void summary() const {
    std::cout << "shape checks: " << passed_ << "/" << total_ << " passed\n";
  }
  bool all_passed() const { return passed_ == total_; }
  /// Adds the `shape checks passed` row (unit "checks") to a bench's JSON
  /// log, so a drop in the paper reproduction shows up in bench_compare
  /// like a perf regression.
  void add_to(BenchJsonLog& log) const {
    log.add("shape checks passed", passed_, "checks");
  }

 private:
  int passed_ = 0;
  int total_ = 0;
};

/// Writes the log to cfg.json_path (no-op when --json was not given).
inline void write_bench_json(const BenchConfig& cfg, const BenchJsonLog& log,
                             const std::string& bench_name) {
  if (cfg.json_path.empty()) return;
  std::ofstream out(cfg.json_path);
  if (!out) {
    std::cerr << "warning: cannot write --json file " << cfg.json_path
              << "\n";
    return;
  }
  log.write(out, bench_name);
  std::cout << "wrote " << cfg.json_path << "\n";
}

}  // namespace gnnhls::bench
