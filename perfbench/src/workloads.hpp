#pragma once
// The four benchmark workloads. Each one builds its inputs from the run's
// seed, measures for the run's duration, checks the broadcast oracles and
// fills the end-to-end metrics (untraced runs) or the per-layer metrics
// (traced runs) of a Report.

#include "measure.hpp"
#include "trace.hpp"

namespace perfbench {

void run_sim_mc(const Args& args, Report& report, TraceLog& trace);
void run_rt_oneshot(const Args& args, Report& report, TraceLog& trace);
void run_rt_stream(const Args& args, Report& report, TraceLog& trace);
void run_udp_lossy(const Args& args, Report& report, TraceLog& trace);

}  // namespace perfbench
