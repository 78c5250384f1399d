// The benchmark's three workloads; each fills the report and returns.
#pragma once

#include "common.h"

namespace gnnhls::perfbench {

void run_serve_socket(const Args& args, Report& rep);
void run_dse_sweep(const Args& args, Report& rep);
void run_train_fit(const Args& args, Report& rep);

}  // namespace gnnhls::perfbench
