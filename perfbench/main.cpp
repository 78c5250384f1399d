// Repo benchmark program: runs one workload at one seed and prints its
// metrics (see perfbench/README.md). Normally started by perfbench/run.py:
//
//   perfbench --workload serve_socket|dse_sweep|train_fit
//             --seed N --seconds S --trace 0|1 [--trace-out PATH]
#include <exception>
#include <iostream>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload "
               "serve_socket|dse_sweep|train_fit --seed N --seconds S "
               "--trace 0|1 [--trace-out PATH]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gnnhls::perfbench;
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    try {
      if (key == "--workload") {
        args.workload = val;
      } else if (key == "--seed") {
        args.seed = std::stoull(val);
      } else if (key == "--seconds") {
        args.seconds = std::stod(val);
      } else if (key == "--trace") {
        args.trace = std::stoi(val) != 0;
      } else if (key == "--trace-out") {
        args.trace_out = val;
      } else {
        return usage("unknown flag " + key);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + key);
    }
  }
  if (argc % 2 == 0) return usage("flags come in --name value pairs");
  if (args.seconds <= 0.0) return usage("--seconds must be positive");
  if (args.trace && args.trace_out.empty()) {
    return usage("--trace 1 needs --trace-out");
  }
  void (*run)(const Args&, Report&) = nullptr;
  if (args.workload == "serve_socket") run = run_serve_socket;
  if (args.workload == "dse_sweep") run = run_dse_sweep;
  if (args.workload == "train_fit") run = run_train_fit;
  if (run == nullptr) return usage("unknown workload '" + args.workload + "'");
  try {
    Report rep(args.trace);
    run(args, rep);
    rep.print();
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << args.workload << " failed: "
              << e.what() << "\n";
    return 1;
  }
  return 0;
}
