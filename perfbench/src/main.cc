// hfq_perfbench: the repository's end-to-end benchmark. Drives the
// optimizer from outside through its public APIs (ParseSql ->
// PlanServer::Plan -> Executor::Execute, with TraditionalOptimizer as the
// comparison). The last stdout line is one JSON object {"correct",
// "attempted", "failed", "values"} with every metric the run measured;
// perfbench/run.py turns it into the benchmark's result line.
//
//   hfq_perfbench --workload serve_hot|plan_cold|exec_analytic
//                 --seed N --seconds S --trace 0|1
//
// Exits 1 when the command line is bad, 2 when an output check failed.
#include <cstdio>

#include "harness.h"
#include "workloads.h"

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  perfbench::Options options;
  if (!perfbench::ParseOptions(argc, argv, &options)) return 1;
  perfbench::Report report;
  if (options.workload == "serve_hot") {
    perfbench::RunServeHot(options, &report);
  } else if (options.workload == "plan_cold") {
    perfbench::RunPlanCold(options, &report);
  } else if (options.workload == "exec_analytic") {
    perfbench::RunExecAnalytic(options, &report);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 1;
  }
  if (report.attempted.load() < 1) report.Fail("no request was attempted");
  report.Print(options);
  return report.correct() ? 0 : 2;
}
