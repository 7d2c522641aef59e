// Bring-up of the system under test and the benchmark's SQL inputs.
//
// Set-up (timed as setup_s) is what a deployment pays before serving:
// build the engine, train one model with a fixed strategy, seed and episode
// budget (one rollout worker, so the model is deterministic), publish it
// into a PlanServer and calibrate the server's effort model. Query
// generation and reference results are benchmark-only work and are not
// part of set-up.
#ifndef PERFBENCH_SYSTEM_H_
#define PERFBENCH_SYSTEM_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/hands_free.h"
#include "harness.h"
#include "serve/plan_server.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace perfbench {

/// Largest query the model is trained for (plan_cold draws up to 10).
inline constexpr int kMaxRelations = 10;

struct System {
  // Declaration order is destruction order in reverse: the server goes
  // first, then the optimizer it wraps, then the engine under both.
  std::unique_ptr<hfq::Engine> engine;
  std::unique_ptr<hfq::HandsFreeOptimizer> optimizer;
  std::unique_ptr<hfq::PlanServer> server;

  // CPU seconds of each set-up step (ProcessCpuNs), and wall seconds of
  // all of them.
  double engine_s = 0.0;
  double train_s = 0.0;
  double publish_s = 0.0;
  double calibrate_s = 0.0;
  double wall_s = 0.0;
  double total_s() const { return engine_s + train_s + publish_s + calibrate_s; }
};

/// Builds the system `repeats` times (set-up time is reported as the median
/// over repeats of its CPU seconds, setup.wall_s as that of its wall time), checks that every repeat trained the same model, and
/// returns the last one. Fills setup_s, setup.* and the set-up publishes'
/// part of serve.publish_s. Returns null after report->Fail on error.
std::unique_ptr<System> BringUp(double scale, int repeats, Report* report);

/// The fixed queries the model trains on / the effort model calibrates on.
/// Built from the engine's catalog with fixed seeds (independent of the
/// workload seed) and named "setup.train.<i>" / "setup.calib.<i>".
std::vector<hfq::Query> TrainingQueries(const hfq::Engine& engine);
std::vector<hfq::Query> CalibrationQueries(const hfq::Engine& engine);

/// Each workload draws its queries from a fixed population generated with
/// its own constant seed: run-to-run differences in which queries a run
/// holds would otherwise swamp every change worth measuring. options.seed
/// drives the traffic over that population (arrival times, Zipf draws,
/// request order), so a seed fixes the SQL stream byte for byte and another
/// seed changes it.
///
/// One entry of a workload's SQL pool: the text the system receives and
/// the query the generator intended (used only to detect SQL round-trip
/// differences).
struct SqlText {
  std::string sql;
  hfq::Query generated;
};

/// Name under which ParseSql sees pool entry `index` of a workload: every
/// distinct SQL text gets its own name (sql/parser.h: names must be unique
/// within a workload). Reusing one name for two different structures would
/// abort in the name-keyed estimator memo (the query-scoped-context item of
/// ROADMAP.md, which carries its own regression test); the benchmark
/// neither triggers that nor works around it.
std::string QueryName(const std::string& workload, size_t index);

/// Fisher-Yates shuffle driven by the repository's Rng.
template <typename T>
void Shuffle(std::vector<T>* items, hfq::Rng* rng) {
  for (size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1],
              (*items)[static_cast<size_t>(
                  rng->UniformInt(0, static_cast<int64_t>(i) - 1))]);
  }
}

/// True when ParseSql(sql) does not reproduce the generated query's
/// structure (StructuralFingerprint differs). Known cause: ParseSql appends
/// every non-aggregate select column to GROUP BY even when GROUP BY
/// already names it, so "SELECT a, COUNT(*) ... GROUP BY a" parses to
/// group keys [a, a]. The benchmark counts these in
/// sql.reparse_mismatch_ratio and serves the parsed query as is.
bool ReparseDiffers(const hfq::Query& parsed, const hfq::Query& generated);

/// Expert (TraditionalOptimizer::Optimize) planning times, kept per
/// relation count for optimizer.expert_ms_p50.n<k>.
class ExpertTimings {
 public:
  void Add(int relations, double ms);
  /// expert_plan_p50_ms / expert_plan_p90_ms and optimizer.expert_ms_p50.*.
  void Fill(Report* report) const;

 private:
  std::vector<double> all_ms_;
  std::map<int, std::vector<double>> by_relations_;
};

/// Plans `query` with the expert, timed from outside; records the time.
/// Returns null (after report->Fail) when the expert fails.
hfq::PlanNodePtr TimedExpertPlan(hfq::Engine* engine, const hfq::Query& query,
                                 ExpertTimings* timings, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_SYSTEM_H_
