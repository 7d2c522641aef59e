// FIG3B — Figure 3b, "Cost of generated plans": after training, the final
// plan cost per named JOB query, ReJOIN vs the traditional optimizer. The
// paper reports ReJOIN matching or slightly beating PostgreSQL on queries
// 1a 1b 1c 1d 8c 12b 13c 15a 16b 22c. Also covers the Section 3 latency
// claim (SEC3-OPT): simulated latency of both plans is reported per query.
//
// Reproduction note (see EXPERIMENTS.md): our expert performs *exhaustive*
// DP up to 12 relations, so for small queries parity (100%) is the
// converged optimum; advantages can only appear on GEQO-regime queries.
#include <map>

#include "bench/bench_common.h"

using namespace hfq;         // NOLINT
using namespace hfq::bench;  // NOLINT

int main() {
  PrintHeader(
      "FIG3B  final plan cost per query, ReJOIN vs expert optimizer "
      "(+ SEC3-OPT latency)",
      "ReJOIN plans cost at most ~equal to PostgreSQL's on the 10 "
      "reported JOB queries");

  auto engine = MakeEngine();
  std::vector<Query> workload = MakeJobSuite(engine.get());

  PolicyGradientConfig pg;
  pg.hidden_dims = {128, 128};
  RejoinHarness harness = MakeRejoinHarness(engine.get(), 17, workload, pg,
                                            /*episodes_per_update=*/16);
  const int kEpisodes = 6000;
  std::printf("training ReJOIN (%d episodes)...\n", kEpisodes);
  harness.Train(workload, kEpisodes, [&](int episode, double) {
    ApplyRejoinSchedule(harness.agent.get(), episode, kEpisodes);
  });

  const std::vector<std::string> kFigureQueries = {
      "q1a", "q1b", "q1c", "q1d", "q8c", "q12b", "q13c", "q15a", "q16b",
      "q22c"};
  std::map<std::string, const Query*> by_name;
  for (const Query& q : workload) by_name[q.name] = &q;

  std::printf("%-6s %-5s %12s %12s %8s %12s %12s %8s\n", "query", "rels",
              "expert cost", "rejoin cost", "ratio", "expert ms",
              "rejoin ms", "ratio");
  PrintRule(88);
  double cost_ratio_sum = 0.0, lat_ratio_sum = 0.0;
  for (const std::string& name : kFigureQueries) {
    const Query* q = by_name.at(name);
    auto expert = engine->RunExpert(*q);
    HFQ_CHECK(expert.ok());
    PlanNodePtr rejoin_plan = harness.Plan(*q);
    double rejoin_cost = rejoin_plan->est_cost;
    double rejoin_ms = engine->latency().SimulateMs(*q, *rejoin_plan);
    double cr = rejoin_cost / std::max(1.0, expert->cost);
    double lr = rejoin_ms / std::max(1e-9, expert->latency_ms);
    cost_ratio_sum += cr;
    lat_ratio_sum += lr;
    std::printf("%-6s %-5d %12.0f %12.0f %7.0f%% %12.1f %12.1f %7.0f%%\n",
                name.c_str(), q->num_relations(), expert->cost, rejoin_cost,
                100.0 * cr, expert->latency_ms, rejoin_ms, 100.0 * lr);
  }
  PrintRule(88);
  std::printf("mean: cost %.0f%% of expert, latency %.0f%% of expert\n",
              100.0 * cost_ratio_sum / kFigureQueries.size(),
              100.0 * lat_ratio_sum / kFigureQueries.size());
  return 0;
}
