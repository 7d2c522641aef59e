#include "system.h"

#include <cstdio>

#include "util/logging.h"

namespace perfbench {

namespace {

constexpr uint64_t kTrainingSeed = 7;
constexpr int kTrainingEpisodes = 2000;

std::vector<hfq::Query> Renamed(std::vector<hfq::Query> queries,
                                const std::string& prefix) {
  for (size_t i = 0; i < queries.size(); ++i) {
    queries[i].name = prefix + std::to_string(i);
  }
  return queries;
}

std::unique_ptr<System> BringUpOnce(double scale, Report* report) {
  auto system = std::make_unique<System>();
  const int64_t wall_start = NowNs();
  int64_t lap_start = ProcessCpuNs();
  // CPU seconds since the previous lap.
  auto lap = [&lap_start] {
    const int64_t now = ProcessCpuNs();
    const double seconds = static_cast<double>(now - lap_start) * 1e-9;
    lap_start = now;
    return seconds;
  };
  hfq::EngineOptions engine_options;
  engine_options.imdb.scale = scale;
  auto engine = hfq::Engine::CreateImdbLike(engine_options);
  if (!engine.ok()) {
    report->Fail("engine: " + engine.status().ToString());
    return nullptr;
  }
  system->engine = std::move(*engine);
  system->engine_s = lap();

  hfq::HandsFreeConfig config;
  config.strategy = hfq::TrainingStrategy::kIncrementalHybrid;
  config.max_relations = kMaxRelations;
  config.training_episodes = kTrainingEpisodes;
  config.seed = kTrainingSeed;
  config.num_rollout_workers = 1;
  system->optimizer =
      std::make_unique<hfq::HandsFreeOptimizer>(system->engine.get(), config);
  hfq::Status trained =
      system->optimizer->Train(TrainingQueries(*system->engine));
  if (!trained.ok()) {
    report->Fail("train: " + trained.ToString());
    return nullptr;
  }
  system->train_s = lap();

  hfq::PlanServerConfig server_config;
  server_config.num_workers = 3;
  system->server = std::make_unique<hfq::PlanServer>(system->optimizer.get(),
                                                     server_config);
  auto published = system->server->PublishPolicy();
  if (!published.ok()) {
    report->Fail("publish: " + published.status().ToString());
    return nullptr;
  }
  system->publish_s = lap();

  hfq::Status calibrated =
      system->server->CalibrateEffort(CalibrationQueries(*system->engine));
  if (!calibrated.ok()) {
    report->Fail("calibrate: " + calibrated.ToString());
    return nullptr;
  }
  system->calibrate_s = lap();
  system->wall_s = static_cast<double>(NowNs() - wall_start) * 1e-9;
  return system;
}

// Greedy plan costs of the calibration queries: identical for identical
// models, so comparing them across set-up repeats checks that training is
// deterministic.
std::vector<double> ModelProbe(System* system) {
  hfq::SearchConfig greedy;
  std::vector<double> costs;
  for (const hfq::Query& query : CalibrationQueries(*system->engine)) {
    auto plan = system->optimizer->OptimizeWithSearch(query, greedy);
    costs.push_back(plan.ok() ? (*plan)->est_cost : -1.0);
  }
  return costs;
}

}  // namespace

std::vector<hfq::Query> TrainingQueries(const hfq::Engine& engine) {
  hfq::WorkloadGenerator generator(&engine.catalog(), /*seed=*/2019,
                                   hfq::QueryShapeOptions(), &engine.db());
  auto suite = generator.GenerateJobLikeSuite(/*families=*/8, /*variants=*/2,
                                              /*min_relations=*/4,
                                              kMaxRelations);
  return suite.ok() ? Renamed(std::move(*suite), "setup.train.")
                    : std::vector<hfq::Query>();
}

std::vector<hfq::Query> CalibrationQueries(const hfq::Engine& engine) {
  hfq::WorkloadGenerator generator(&engine.catalog(), /*seed=*/2020,
                                   hfq::QueryShapeOptions(), &engine.db());
  std::vector<hfq::Query> queries;
  for (int n : {3, 4, 5, 6, 7, 8}) {
    auto query = generator.GenerateQuery(n, "");
    if (query.ok()) queries.push_back(std::move(*query));
  }
  return Renamed(std::move(queries), "setup.calib.");
}

std::unique_ptr<System> BringUp(double scale, int repeats, Report* report) {
  hfq::SetLogLevel(hfq::LogLevel::kError);
  std::vector<double> engine_s, train_s, publish_s, calibrate_s, total_s,
      wall_s;
  std::vector<double> first_probe;
  std::unique_ptr<System> system;
  for (int r = 0; r < repeats; ++r) {
    system.reset();  // Free the previous repeat before building the next.
    system = BringUpOnce(scale, report);
    if (system == nullptr) return nullptr;
    engine_s.push_back(system->engine_s);
    train_s.push_back(system->train_s);
    publish_s.push_back(system->publish_s);
    calibrate_s.push_back(system->calibrate_s);
    total_s.push_back(system->total_s());
    wall_s.push_back(system->wall_s);
    std::printf("setup %d/%d: %.3f CPU s (engine %.3f, train %.3f, publish "
                "%.4f, calibrate %.3f), %.3f s wall\n",
                r + 1, repeats, system->total_s(), system->engine_s,
                system->train_s, system->publish_s, system->calibrate_s,
                system->wall_s);
    const std::vector<double> probe = ModelProbe(system.get());
    if (r == 0) {
      first_probe = probe;
    } else if (probe != first_probe) {
      report->Fail("set-up repeat " + std::to_string(r + 1) +
                   " trained a different model than repeat 1");
    }
  }
  report->Set("setup_s", Median(total_s));
  report->Set("setup.wall_s", Median(wall_s));
  report->Set("setup.engine_s", Median(engine_s));
  report->Set("setup.train_s", Median(train_s));
  report->Set("setup.calibrate_s", Median(calibrate_s));
  report->Set("serve.publish_s", Median(publish_s));
  return system;
}

std::string QueryName(const std::string& workload, size_t index) {
  return workload + "." + std::to_string(index);
}

bool ReparseDiffers(const hfq::Query& parsed, const hfq::Query& generated) {
  return parsed.StructuralFingerprint() != generated.StructuralFingerprint();
}

void ExpertTimings::Add(int relations, double ms) {
  all_ms_.push_back(ms);
  by_relations_[relations].push_back(ms);
}

void ExpertTimings::Fill(Report* report) const {
  if (all_ms_.empty()) return;
  report->Set("expert_plan_p50_ms", Quantile(all_ms_, 0.5));
  report->Set("expert_plan_p90_ms", Quantile(all_ms_, 0.9));
  for (const auto& [n, ms] : by_relations_) {
    if (n >= 4 && n <= 10) {
      report->Set("optimizer.expert_ms_p50.n" + std::to_string(n),
                  Quantile(ms, 0.5));
    }
  }
}

hfq::PlanNodePtr TimedExpertPlan(hfq::Engine* engine, const hfq::Query& query,
                                 ExpertTimings* timings, Report* report) {
  const int64_t start = NowNs();
  auto plan = engine->expert().Optimize(query);
  const double ms = static_cast<double>(NowNs() - start) * 1e-6;
  if (!plan.ok()) {
    report->Fail("expert plan of " + query.name + ": " +
                 plan.status().ToString());
    return nullptr;
  }
  timings->Add(query.num_relations(), ms);
  return std::move(*plan);
}

}  // namespace perfbench
