// serve_socket: the socket serving path, end to end.
//
// Four knowledge-infused (-I, hierarchical) RGCN predictors, one per metric,
// behind one ServingScheduler (2 workers, max_batch 8, 200 us window) and an
// in-process TcpEndpoint on loopback. Requests carry seeded synthetic DFG
// graphs (text payloads of about 1 KB), round-robin over the four models, on
// two client connections.
//
//   Phase A: open loop, Poisson arrivals at a fixed 2000 req/s in total
//            (1000 per connection). Latency runs from each request's DUE
//            time, so a stall that delays later sends is charged to them;
//            how late the sender ran is reported as gen.late_us.*.
//   Phase B: closed loop, 16 requests in flight per connection; the
//            saturation throughput is OK responses per second.
//
// Every OK answer must equal sequential QorPredictor::predict of the same
// model on the same sample, bit for bit; a refused, failed, missing or
// different answer is a failed operation.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>
#include <memory>
#include <thread>

#include "common.h"
#include "dataset/serialize.h"
#include "obs/trace.h"
#include "serve/tcp_endpoint.h"
#include "support/parallel.h"
#include "support/rng.h"
#include "workloads.h"

namespace gnnhls::perfbench {
namespace {

constexpr int kPoolWidth = 1;
constexpr int kWorkers = 2;
constexpr int kConnections = 2;
constexpr double kRatePerConn = 1000.0;  // phase A: 2000 req/s in total
constexpr int kClosedInflight = 16;      // phase B, per connection
constexpr int kTrainGraphs = 480;
constexpr int kEpochs = 4;
constexpr int kRequestPool = 256;
constexpr int kSetupReps = 3;
constexpr double kPhaseAShare = 0.6;  // of --seconds; phase B gets the rest

struct Models {
  std::vector<Sample> corpus;
  SplitIndices split;
  std::vector<std::unique_ptr<QorPredictor>> predictors;  // by Metric
  double graph_epochs = 0.0;  // (classifier + regressor epochs) x train
  double fit_s = 0.0;
};

/// What the client side knows about one request, and what came back.
struct Sent {
  int model = 0;
  int pick = 0;
  double due_s = 0.0;
  bool answered = false;
};

struct Outcome {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;  // non-OK, wrong value or unanswered
  std::vector<double> latency_us;  // from the due (A) or send (B) time
  std::vector<double> due_s;   // phase A: due time of each latency sample
  std::vector<double> done_s;  // phase B: completion time of each OK answer
  std::vector<double> late_us;
  double wall_s = 0.0;
  double start_s = 0.0;
};

/// Groups `values` into one-second windows of `times` (from `t0`) and
/// returns the median over windows of fn(window). Medians over windows keep
/// a host stall from moving the result more than the windows it falls in.
template <typename Fn>
double windowed_median(const std::vector<double>& times,
                       const std::vector<double>& values, double t0, Fn&& fn) {
  std::vector<std::vector<double>> windows;
  for (std::size_t i = 0; i < times.size(); ++i) {
    if (times[i] < t0) continue;
    const std::size_t w = static_cast<std::size_t>(times[i] - t0);
    if (windows.size() <= w) windows.resize(w + 1);
    windows[w].push_back(values[i]);
  }
  std::vector<double> per;
  for (std::vector<double>& w : windows) {
    if (!w.empty()) per.push_back(fn(w));
  }
  return median(per);
}

class Load {
 public:
  Load(int port, const std::vector<std::string>& payloads,
       const std::vector<std::vector<double>>& expected)
      : port_(port), payloads_(payloads), expected_(expected) {}

  /// Phase A: one paced sender and one receiver thread per connection.
  Outcome open_loop(std::uint64_t seed, double seconds) const {
    std::vector<Outcome> per(kConnections);
    std::vector<std::thread> threads;
    const double start = now_s() + 0.01;
    for (int c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c] {
        per[static_cast<std::size_t>(c)] = open_conn(
            seed * 7919 + static_cast<std::uint64_t>(c), c, start, seconds);
      });
    }
    for (std::thread& t : threads) t.join();
    Outcome all = merge(per, now_s() - start);
    all.start_s = start;
    return all;
  }

  /// Phase B: per connection, kClosedInflight requests outstanding.
  Outcome closed_loop(std::uint64_t seed, double seconds) const {
    std::vector<Outcome> per(kConnections);
    std::vector<std::thread> threads;
    const double start = now_s();
    for (int c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c] {
        per[static_cast<std::size_t>(c)] = closed_conn(
            seed * 104729 + static_cast<std::uint64_t>(c), c, start + seconds);
      });
    }
    for (std::thread& t : threads) t.join();
    Outcome all = merge(per, now_s() - start);
    all.start_s = start;
    return all;
  }

 private:
  /// Request k of connection `conn`: models round-robin, seeded graph pick.
  Sent request(Rng& rng, std::size_t k, int conn) const {
    Sent s;
    s.model = static_cast<int>((k + static_cast<std::size_t>(conn)) %
                               kNumMetrics);
    s.pick = rng.uniform_int(0, static_cast<int>(payloads_.size()) - 1);
    return s;
  }

  RequestFrame frame(std::uint64_t id, const Sent& s) const {
    RequestFrame req;
    req.request_id = id;
    req.model = static_cast<std::uint32_t>(s.model);
    req.payload = payloads_[static_cast<std::size_t>(s.pick)];
    return req;
  }

  /// Checks one response against the request table; returns true if OK
  /// and bit-identical to sequential predict().
  bool settle(std::vector<Sent>& sent, const ResponseFrame& r) const {
    if (r.request_id >= sent.size() || sent[r.request_id].answered) {
      return false;
    }
    Sent& s = sent[r.request_id];
    s.answered = true;
    const double want = expected_[static_cast<std::size_t>(s.model)]
                                 [static_cast<std::size_t>(s.pick)];
    return r.result == WireResult::kOk &&
           std::memcmp(&r.prediction, &want, sizeof want) == 0;
  }

  static void count_unanswered(const std::vector<Sent>& sent, Outcome& o) {
    for (const Sent& s : sent) {
      if (!s.answered) ++o.failed;
    }
  }

  Outcome open_conn(std::uint64_t seed, int conn, double start,
                    double seconds) const {
    // The whole schedule is drawn up front from the seed: exponential
    // gaps, models round-robin, seeded sample picks.
    Rng rng(seed);
    std::vector<Sent> sent;
    for (double t = 0.0;;) {
      t += -std::log(1.0 - rng.uniform()) / kRatePerConn;
      if (t >= seconds) break;
      Sent s = request(rng, sent.size(), conn);
      s.due_s = start + t;
      sent.push_back(s);
    }
    Outcome o;
    o.sent = sent.size();
    TcpClient client(port_);
    std::thread receiver([&] {
      ResponseFrame r;
      while (client.recv_response(r)) {
        const double done = now_s();
        if (settle(sent, r)) {
          ++o.ok;
          o.latency_us.push_back((done - sent[r.request_id].due_s) * 1e6);
          o.due_s.push_back(sent[r.request_id].due_s);
        } else {
          ++o.failed;
        }
      }
    });
    o.late_us.reserve(sent.size());
    for (std::size_t i = 0; i < sent.size(); ++i) {
      sleep_until_s(sent[i].due_s);
      o.late_us.push_back((now_s() - sent[i].due_s) * 1e6);
      if (!client.send_request(frame(i, sent[i]))) break;
    }
    client.shutdown_write();  // the endpoint answers what it took, then FINs
    receiver.join();
    count_unanswered(sent, o);
    return o;
  }

  Outcome closed_conn(std::uint64_t seed, int conn, double end) const {
    Rng rng(seed);
    std::vector<Sent> sent;
    Outcome o;
    TcpClient client(port_);
    const auto send_next = [&] {
      Sent s = request(rng, sent.size(), conn);
      s.due_s = now_s();
      sent.push_back(s);
      return client.send_request(frame(sent.size() - 1, s));
    };
    bool open = true;
    for (int i = 0; i < kClosedInflight && open; ++i) open = send_next();
    ResponseFrame r;
    while (open && client.recv_response(r)) {
      if (settle(sent, r)) {
        ++o.ok;
        o.done_s.push_back(now_s());
        o.latency_us.push_back((o.done_s.back() - sent[r.request_id].due_s) *
                               1e6);
      } else {
        ++o.failed;
      }
      if (now_s() >= end) break;
      open = send_next();
    }
    client.shutdown_write();
    while (client.recv_response(r)) {
      if (settle(sent, r)) {
        ++o.ok;
      } else {
        ++o.failed;
      }
    }
    o.sent = sent.size();
    count_unanswered(sent, o);
    return o;
  }

  static Outcome merge(std::vector<Outcome>& per, double wall_s) {
    Outcome all;
    for (Outcome& o : per) {
      all.sent += o.sent;
      all.ok += o.ok;
      all.failed += o.failed;
      all.latency_us.insert(all.latency_us.end(), o.latency_us.begin(),
                            o.latency_us.end());
      all.due_s.insert(all.due_s.end(), o.due_s.begin(), o.due_s.end());
      all.done_s.insert(all.done_s.end(), o.done_s.begin(), o.done_s.end());
      all.late_us.insert(all.late_us.end(), o.late_us.begin(),
                         o.late_us.end());
    }
    all.wall_s = wall_s;
    return all;
  }

  int port_;
  const std::vector<std::string>& payloads_;
  const std::vector<std::vector<double>>& expected_;
};

/// The served models are a fixed set-up artifact: their corpus, split and
/// initialisation come from constants, so --seed varies only the traffic
/// (request graphs, arrival times, model and graph picks). Models fitted on
/// seeded corpora of this size differ so much in quality that their test
/// MAPE moved by a quarter between seeds.
Models train_models(bool trace) {
  Models m;
  m.corpus = make_corpus(GraphKind::kDfg, kTrainGraphs, kInitSeed * 1000 + 1);
  m.split = split_80_10_10(kTrainGraphs, kInitSeed);
  TrainConfig tc;
  tc.epochs = kEpochs;
  tc.lr = 1e-2F;
  tc.batch_size = 8;
  tc.shards = kPoolWidth;
  tc.seed = kInitSeed;
  tc.obs.trace = trace;
  for (Metric metric : kAllMetrics) {
    auto p = std::make_unique<QorPredictor>(Approach::kKnowledgeInfused,
                                            bench_model(), tc);
    const double t0 = now_s();
    p->fit(m.corpus, m.split, metric, FitOptions{});
    m.fit_s += now_s() - t0;
    m.graph_epochs +=
        2.0 * kEpochs * static_cast<double>(m.split.train.size());
    m.predictors.push_back(std::move(p));
  }
  return m;
}

}  // namespace

void run_serve_socket(const Args& args, Report& rep) {
  ThreadPool::set_global_threads(kPoolWidth);
  tune_malloc_for_tensor_workloads();
  const ObsConfig obs{false, args.trace};

  // ----- set-up: corpus, four -I fits, server start (repeated) -----
  Models models;
  std::unique_ptr<ServingScheduler> sched;
  std::unique_ptr<TcpEndpoint> endpoint;
  std::vector<double> fit_rates;
  const double setup_s = repeated_setup(kSetupReps, [&] {
    endpoint.reset();
    sched.reset();
    models = train_models(args.trace);
    fit_rates.push_back(models.graph_epochs / models.fit_s);
    std::vector<const QorPredictor*> ptrs;
    for (const auto& p : models.predictors) ptrs.push_back(p.get());
    SchedulerConfig sc;
    sc.workers = kWorkers;
    sc.max_batch = 8;
    sc.batch_window_us = 200;
    sc.obs = obs;
    sched = std::make_unique<ServingScheduler>(ptrs, sc);
    TcpEndpointConfig ec;
    ec.max_inflight = 4096;  // phase A must never be refused for pacing
    ec.obs = obs;
    endpoint = std::make_unique<TcpEndpoint>(*sched, ec);
  });

  // ----- the benchmark's own inputs and reference answers -----
  const double tb = now_s();
  const std::vector<Sample> pool =
      make_corpus(GraphKind::kDfg, kRequestPool, args.seed * 1000 + 2);
  const double pool_ms_per_graph = (now_s() - tb) * 1e3 / kRequestPool;
  std::vector<std::string> payloads;
  double payload_bytes = 0.0;
  for (const Sample& s : pool) {
    payloads.push_back(encode_sample_payload(s));
    payload_bytes += static_cast<double>(payloads.back().size());
  }
  payload_bytes /= static_cast<double>(payloads.size());
  std::vector<std::vector<double>> expected(kNumMetrics);
  for (int m = 0; m < kNumMetrics; ++m) {
    for (const Sample& s : pool) {
      expected[static_cast<std::size_t>(m)].push_back(
          models.predictors[static_cast<std::size_t>(m)]->predict(s));
    }
  }

  // ----- measured phases -----
  const Load load(endpoint->port(), payloads, expected);
  if (args.trace) {
    TraceCollector::global().clear();
    TraceCollector::global().start();
  }
  const SchedStats s0 = sched->stats();
  const Outcome a = load.open_loop(args.seed, kPhaseAShare * args.seconds);
  const Outcome b =
      load.closed_loop(args.seed, (1.0 - kPhaseAShare) * args.seconds);
  const SchedStats s1 = sched->stats();
  const WireStats wire = endpoint->stats();
  const double rss = peak_rss_mb();
  rep.phase("serve_socket.open_loop", a.sent, a.failed);
  rep.phase("serve_socket.closed_loop", b.sent, b.failed);

  const Dist lat = dist(a.latency_us);
  const double p50_us =
      windowed_median(a.due_s, a.latency_us, a.start_s,
                      [](std::vector<double>& w) { return median(w); });
  // OK answers per second in each whole second of phase B (the drain after
  // the last second is not counted).
  std::vector<double> done_in_time;
  for (double t : b.done_s) {
    if (t < b.start_s + std::floor(b.wall_s)) done_in_time.push_back(t);
  }
  const double sat_rps =
      done_in_time.empty()  // phase B shorter than a second
          ? static_cast<double>(b.ok) / b.wall_s
          : windowed_median(done_in_time, done_in_time, b.start_s,
                            [](const std::vector<double>& w) {
                              return static_cast<double>(w.size());
                            });
  const Dist late = dist(a.late_us);
  std::cout << "phase A: " << a.sent << " requests at "
            << 2 * kRatePerConn << " req/s offered, p50 " << p50_us / 1e3
            << " ms, p99 " << lat.p99 / 1e3 << " ms (" << lat.n
            << " samples), generator late p99 " << late.p99 << " us\n"
            << "phase B: " << b.ok << " OK in " << b.wall_s << " s = "
            << sat_rps << " req/s\n";

  rep.e2e("setup_s", setup_s, "s");
  rep.e2e("peak_rss_mb", rss, "MB");
  // Phase A latency is a per-layer diagnostic, not an end-to-end metric:
  // a request crosses five threads, and on a shared host the whole
  // latency distribution shifts with wake-up latency between runs (the
  // p50 by about a third over ten runs, the p99 by far more).
  rep.layer("serve_p50_ms", p50_us / 1e3, "ms");
  rep.layer("serve_p99_ms", lat.p99 / 1e3, "ms");
  rep.e2e("serve_sat_rps", sat_rps, "1/s");
  // Every request scores one design candidate, so the serving path's
  // candidates per second are its saturation rate.
  rep.e2e("dse_cand_per_s", sat_rps, "cand/s");

  if (!rep.traced()) {
    // Analogues of the training metrics: the set-up fits, and the served
    // models' test MAPE on the traffic they served (the request pool is a
    // held-out DFG set with HLS ground truth), averaged over the four
    // metrics: the LUT model's alone moves by a sixth between request pools.
    rep.e2e("train_graphs_per_s", median(fit_rates), "graphs/s");
    double mape_sum = 0.0;
    for (const auto& p : models.predictors) {
      mape_sum += 100.0 * p->evaluate_mape(pool, all_indices(kRequestPool));
    }
    rep.e2e("train_test_mape", mape_sum / kNumMetrics, "%");
  } else {
    TraceCollector::global().stop();
    if (!TraceCollector::global().write_json(args.trace_out)) {
      rep.check("trace written to " + args.trace_out, false);
    }
    // Tracing overhead: phase B again with the collector stopped.
    const Outcome bu =
        load.closed_loop(args.seed + 1, (1.0 - kPhaseAShare) * args.seconds);
    rep.phase("serve_socket.closed_loop_untraced", bu.sent, bu.failed);
    const double untraced_rps = static_cast<double>(bu.ok) / bu.wall_s;
    const double traced_rps = static_cast<double>(b.ok) / b.wall_s;
    rep.layer("obs.trace_overhead", 100.0 * (untraced_rps / traced_rps - 1.0),
              "%");

    LayerTimes lt;
    for (int r = 0; r < 4; ++r) {
      for (const std::string& p : payloads) {
        lt.time("wire.decode", [&] { return decode_sample_payload(p); });
      }
    }
    std::vector<const Sample*> ptrs;
    double nodes = 0.0;
    double edges = 0.0;
    for (const Sample& s : pool) {
      ptrs.push_back(&s);
      nodes += s.graph().num_nodes();
      edges += s.graph().num_edges();
    }
    const QorPredictor& lut = *models.predictors[1];
    predict_many_probe(lut, ptrs, 1, kRequestPool, lt, "core.predict_many.b1");
    predict_many_probe(lut, ptrs, 8, kRequestPool / 8, lt,
                       "core.predict_many.b8");
    gnn_probe(ptrs, 8, lt);
    hls_probe(models.corpus, 64, lt);
    lt.time("core.evaluate_mape", [&] {
      return lut.evaluate_mape(models.corpus, models.split.test);
    });

    rep.layer("wire.payload_bytes", payload_bytes, "bytes");
    rep.layer_timed("wire.decode", lt.get("wire.decode"));
    rep.layer("wire.rejects",
              static_cast<double>(wire.rejects_backpressure +
                                  wire.rejects_payload + wire.rejects_sched),
              "count");
    const double batches = static_cast<double>(s1.batches - s0.batches);
    const double completed = static_cast<double>(s1.completed - s0.completed);
    rep.layer("sched.avg_batch", completed / batches, "graphs");
    rep.layer("sched.flush_timeout_share",
              static_cast<double>(s1.flush_timeout - s0.flush_timeout) /
                  batches,
              "ratio");
    rep.layer("sched.heap_allocs_per_batch",
              static_cast<double>(s1.heap_allocs - s0.heap_allocs) / batches,
              "count");
    rep.layer("sched.shed",
              static_cast<double>(s1.shed_total() - s0.shed_total()),
              "count");
    for (const char* name : {"core.predict_many.b1", "core.predict_many.b8",
                             "core.evaluate_mape", "gnn.feature_build",
                             "gnn.batch_build", "hls.synth"}) {
      rep.layer_timed(name, lt.get(name));
    }
    const double mean_nodes = nodes / kRequestPool;
    const double mean_edges = edges / kRequestPool;
    rep.layer("gnn.nodes_per_forward", mean_nodes * completed / batches,
              "nodes");
    rep.layer("gnn.edges_per_forward", mean_edges * completed / batches,
              "edges");
    rep.layer("dataset.build_ms_per_graph", pool_ms_per_graph, "ms");
    rep.layer("gen.late_us.p99", late.p99, "us");
    rep.layer("gen.late_us.max", late.max, "us");
    // Per request over both phases: the mean latency against the mean of
    // each span on the request path (frame_decode, a few us per request,
    // is left out: its spans are per decoder call, not per request).
    std::vector<double> all_lat = a.latency_us;
    all_lat.insert(all_lat.end(), b.latency_us.begin(), b.latency_us.end());
    rep.attribution("per_request", dist(all_lat).mean / 1e3,
                    {"admission", "queue_wait", "batch_assembly", "forward",
                     "scatter", "write_back"},
                    {});
  }
  endpoint->stop();
  sched->shutdown();
  stamp_run(rep, args, kPoolWidth, kWorkers);
}

}  // namespace gnnhls::perfbench
