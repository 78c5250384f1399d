#!/usr/bin/env python3
"""Run one workload of the repo benchmark and print its metrics.

    python3 perfbench/run.py --workload serve_socket|dse_sweep|train_fit \
        --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark program (perfbench/*.cpp) is
built from source on first use into $CARGO_TARGET_DIR (default
.bench_build) under perfbench/. With --trace 0 the last stdout line is a
JSON object holding the end-to-end metrics of BENCHMARK.json; with --trace 1
the program also writes a Chrome trace, which is validated with
scripts/check_trace_json.py, and the JSON holds the per-layer metrics: the
program's own timed calls and counters plus the statistics of the program's
trace spans computed here. Metrics a workload does not exercise read 0 and
show as n/a in the printed table.

Exit status: 0 when a result was printed (its "correct" field says whether
every exactness check passed), non-zero when the benchmark could not run.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_socket", "dse_sweep", "train_fit")

# Program spans reported as span.<name>.{n,sum_ms,p50_us,p99_us}, and the
# ones each workload's traced run must contain.
SPANS = ("tcp_read", "frame_decode", "admission", "write_back", "queue_wait",
         "batch_assembly", "forward", "scatter", "epoch", "score_round",
         "synthesize", "halving_round")
REQUIRED = {
    "serve_socket": ("tcp_read", "frame_decode", "admission", "write_back",
                     "queue_wait", "batch_assembly", "forward", "scatter"),
    "dse_sweep": ("score_round", "synthesize", "halving_round"),
    "train_fit": ("epoch", "shard"),
}
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures and builds the benchmark program; returns (dir, binary)."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        die(f"no gnnhls sources in {ROOT}: run from a repository checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            die("build failed: " + " ".join(cmd))
    return build_dir, os.path.join(build_dir, "perfbench")


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def quantile(sorted_vals, p):
    """Nearest-rank quantile (the C++ dist() rule)."""
    if not sorted_vals:
        return 0.0
    i = min(len(sorted_vals), max(1, math.ceil(p * len(sorted_vals)))) - 1
    return float(sorted_vals[i])


def span_metrics(trace_path, attribution):
    """span.* statistics, the shard busy share and the unattributed share."""
    with open(trace_path, encoding="utf-8") as f:
        events = json.load(f)["traceEvents"]
    durs, tids = {}, {}
    for ev in events:
        durs.setdefault(ev["name"], []).append(ev["dur"])
        tids.setdefault(ev["name"], set()).add(ev["tid"])
    out, mean_us = {}, {}
    for name in SPANS:
        d = sorted(durs.get(name, []))
        out[f"span.{name}.n"] = (len(d), "count")
        out[f"span.{name}.sum_ms"] = (sum(d) / 1e3, "ms")
        out[f"span.{name}.p50_us"] = (quantile(d, 0.50), "us")
        out[f"span.{name}.p99_us"] = (quantile(d, 0.99), "us")
        mean_us[name] = sum(d) / len(d) if d else 0.0
    shard, epoch = durs.get("shard", []), durs.get("epoch", [])
    if shard and epoch:
        width = len(tids["shard"])
        out["train.shard_busy_share"] = (sum(shard) / (sum(epoch) * width),
                                         "ratio")
    if attribution:
        if attribution["mode"] == "per_request":
            covered_ms = sum(mean_us[s] for s in attribution["spans"]) / 1e3
        else:
            covered_ms = sum(sum(durs.get(s, [])) for s in
                             attribution["spans"]) / 1e3
        covered_ms += sum(attribution["parts_ms"].values())
        base = attribution["base_ms"]
        out["layer.unattributed_share"] = (
            1.0 - covered_ms / base if base > 0 else 0.0, "ratio")
    return out


def print_table(metrics, missing):
    print(f"per-layer metrics ({len(metrics)}; n/a = not exercised by this "
          "workload):")
    for name in sorted(metrics):
        value = metrics[name]["value"]
        shown = "n/a" if name in missing else f"{value:.6g}"
        print(f"  {name:<40} {shown:>14} {metrics[name]['unit']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    build_dir, program = build()
    e2e_units, layer_units = declared()
    cmd = [program, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    trace_path = os.path.join(build_dir,
                              f"trace_{args.workload}_{args.seed}.json")
    if args.trace:
        cmd += ["--trace-out", trace_path]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        die(f"perfbench exited with {proc.returncode}")
    result = json.loads(lines[-1])
    attribution = None
    for line in lines[:-1]:
        if line.startswith("perfbench-attribution "):
            attribution = json.loads(line.split(" ", 1)[1])
        else:
            print(line)

    metrics = result["metrics"]
    units = layer_units if args.trace else e2e_units
    if args.trace:
        check = subprocess.run(
            [sys.executable, os.path.join(ROOT, "scripts",
                                          "check_trace_json.py"), trace_path]
            + [a for s in REQUIRED[args.workload] for a in ("--require", s)],
            stdout=subprocess.PIPE, text=True)
        print("trace check: " + check.stdout.strip())
        if check.returncode != 0:
            result["correct"] = False
        else:
            for name, (value, unit) in span_metrics(trace_path,
                                                    attribution).items():
                metrics[name] = {"value": value, "unit": unit}
    undeclared = sorted(set(metrics) - set(units))
    if undeclared:
        print("error: metrics missing from BENCHMARK.json: "
              + ", ".join(undeclared))
        result["correct"] = False
        for name in undeclared:
            del metrics[name]
    missing = set(units) - set(metrics)
    if missing and not args.trace:
        print("error: end-to-end metrics not measured: "
              + ", ".join(sorted(missing)))
        result["correct"] = False
    for name in missing:
        metrics[name] = {"value": 0.0, "unit": units[name]}
    result["metrics"] = {name: metrics[name] for name in units}
    if args.trace:
        print_table(result["metrics"], missing)
    else:
        for name, m in result["metrics"].items():
            print(f"  {name:<24} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
