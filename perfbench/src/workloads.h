// The three workloads. Each builds the system, generates its SQL from
// options.seed, measures for options.seconds, checks outputs, and fills the
// report (end-to-end metrics always, per-layer metrics from spans when
// options.trace is set).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

/// Open loop, Poisson arrivals, Zipf-popular repeated SQL: parse + cache
/// hit, with background policy publishes that invalidate the plan cache.
void RunServeHot(const Options& options, Report* report);

/// Closed loop, 1 session, every request a never-seen query: learned
/// search (beam-4) next to the expert's exhaustive DP.
void RunPlanCold(const Options& options, Report* report);

/// Closed loop, 1 session: SQL -> plan (cache hit) -> execute -> rows at
/// engine scale 1.0, with the expert plan of the same query executed
/// alongside (alternating which side runs first).
void RunExecAnalytic(const Options& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
