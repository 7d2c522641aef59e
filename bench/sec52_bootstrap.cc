// SEC52-BOOT — Section 5.2, cost-model bootstrapping: Phase 1 trains
// against the cost model ("training wheels"), Phase 2 switches to latency.
// The paper predicts that switching to the *raw* latency range destabilizes
// the learner (reward-range shock -> renewed exploration of bad plans),
// while mapping latency into the Phase-1 cost range with the paper's
// linear formula keeps the transition smooth. Also reports the unit
// mismatch itself (the observed cost range vs latency range).
#include <algorithm>

#include "bench/bench_common.h"
#include "core/bootstrap.h"

using namespace hfq;         // NOLINT
using namespace hfq::bench;  // NOLINT

namespace {

struct RunSeries {
  std::vector<double> window_mean_latency;
  std::vector<double> window_worst_latency;
  double cost_min = 0.0, cost_max = 0.0, lat_min = 0.0, lat_max = 0.0;
};

RunSeries RunMode(Engine* engine, const std::vector<Query>& workload,
                  BootstrapSwitchMode mode, int phase1, int phase2,
                  int window, uint64_t seed) {
  RejoinFeaturizer featurizer(8, &engine->estimator());
  NegLogCostReward unused;
  FullPipelineEnv env(&featurizer, &engine->expert(), &unused);
  BootstrapConfig config;
  config.pg.hidden_dims = {128, 128};
  config.switch_mode = mode;
  BootstrapTrainer trainer(&env, engine, config, seed);

  RunSeries series;
  std::vector<double> window_lat;
  auto flush = [&]() {
    if (window_lat.empty()) return;
    double mean = 0.0, worst = 0.0;
    for (double v : window_lat) {
      mean += v;
      worst = std::max(worst, v);
    }
    series.window_mean_latency.push_back(mean / window_lat.size());
    series.window_worst_latency.push_back(worst);
    window_lat.clear();
  };
  auto on_episode = [&](const BootstrapEpisodeStats& s) {
    window_lat.push_back(s.latency_ms);
    if (static_cast<int>(window_lat.size()) == window) flush();
  };
  trainer.RunPhase1(workload, phase1, on_episode);
  flush();
  trainer.SwitchToPhase2();
  trainer.RunPhase2(workload, phase2, on_episode);
  flush();
  return series;
}

}  // namespace

int main() {
  PrintHeader(
      "SEC52-BOOT  cost-model bootstrapping: unscaled vs scaled reward "
      "switch",
      "an unscaled Phase1->Phase2 switch destabilizes the learner; the "
      "paper's scaling formula keeps it smooth");

  auto engine = MakeEngine();
  std::vector<Query> workload =
      MakeLatencyWorkload(engine.get(), /*count=*/12, /*min_rels=*/5,
                          /*max_rels=*/7, /*seed=*/52);

  const int kPhase1 = 600, kPhase2 = 600, kWindow = 100;

  // Instrument the unit mismatch once (scaled run calibrates).
  {
    RejoinFeaturizer featurizer(8, &engine->estimator());
    NegLogCostReward cost_reward;
    FullPipelineEnv env(&featurizer, &engine->expert(), &cost_reward);
    BootstrapConfig config;
    config.pg.hidden_dims = {64, 64};
    BootstrapTrainer probe(&env, engine.get(), config, 999);
    double cmin = 1e300, cmax = 0.0, lmin = 1e300, lmax = 0.0;
    probe.RunPhase1(workload, 150, [&](const BootstrapEpisodeStats& s) {
      cmin = std::min(cmin, s.cost);
      cmax = std::max(cmax, s.cost);
      lmin = std::min(lmin, s.latency_ms);
      lmax = std::max(lmax, s.latency_ms);
    });
    std::printf(
        "unit mismatch (paper's 10-50 vs 100-200s example, our units):\n"
        "  optimizer cost range observed: %.0f .. %.0f (unitless)\n"
        "  latency range observed:        %.1f .. %.1f ms\n\n",
        cmin, cmax, lmin, lmax);
  }

  // Average each mode over three seeds (single runs are noisy: one
  // catastrophic episode dominates a window).
  auto run_mode_avg = [&](BootstrapSwitchMode mode) {
    RunSeries avg;
    const int kSeeds = 3;
    for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
      RunSeries one = RunMode(engine.get(), workload, mode, kPhase1,
                              kPhase2, kWindow, seed);
      if (avg.window_mean_latency.empty()) {
        avg = one;
        continue;
      }
      for (size_t w = 0; w < avg.window_mean_latency.size(); ++w) {
        avg.window_mean_latency[w] += one.window_mean_latency[w];
        avg.window_worst_latency[w] =
            std::max(avg.window_worst_latency[w],
                     one.window_worst_latency[w]);
      }
    }
    for (double& v : avg.window_mean_latency) v /= kSeeds;
    return avg;
  };
  RunSeries unscaled = run_mode_avg(BootstrapSwitchMode::kUnscaled);
  RunSeries scaled = run_mode_avg(BootstrapSwitchMode::kScaled);
  RunSeries transfer = run_mode_avg(BootstrapSwitchMode::kScaledTransfer);

  const size_t switch_window = static_cast<size_t>(kPhase1 / kWindow);
  std::printf("%-10s | %-21s | %-21s | %-21s\n", "episodes",
              "unscaled mean/worst", "scaled mean/worst",
              "scaled+xfer mean/worst");
  PrintRule(86);
  for (size_t w = 0; w < unscaled.window_mean_latency.size(); ++w) {
    const char* marker = w == switch_window ? "<- Phase 2 begins" : "";
    std::printf("%-10zu | %8.0f / %9.0f | %8.0f / %9.0f | %8.0f / %9.0f %s\n",
                (w + 1) * kWindow, unscaled.window_mean_latency[w],
                unscaled.window_worst_latency[w],
                scaled.window_mean_latency[w],
                scaled.window_worst_latency[w],
                transfer.window_mean_latency[w],
                transfer.window_worst_latency[w], marker);
  }
  PrintRule(86);

  // Instability metric: mean latency over the first 3 Phase-2 windows
  // (the transition period), seed-averaged. Lower = smoother switch.
  auto transition_mean = [&](const RunSeries& s) {
    double total = 0.0;
    int count = 0;
    for (size_t w = switch_window;
         w < std::min(s.window_mean_latency.size(), switch_window + 3); ++w) {
      total += s.window_mean_latency[w];
      ++count;
    }
    return total / std::max(1, count);
  };
  auto phase2_mean = [&](const RunSeries& s) {
    double total = 0.0;
    int count = 0;
    for (size_t w = switch_window; w < s.window_mean_latency.size(); ++w) {
      total += s.window_mean_latency[w];
      ++count;
    }
    return total / std::max(1, count);
  };
  std::printf(
      "transition (first 300 Phase-2 episodes, 3-seed average):\n"
      "  unscaled %.0f ms   scaled %.0f ms   scaled+transfer %.0f ms\n",
      transition_mean(unscaled), transition_mean(scaled),
      transition_mean(transfer));
  std::printf(
      "whole Phase 2 (recovery speed, 3-seed average):\n"
      "  unscaled %.0f ms   scaled %.0f ms   scaled+transfer %.0f ms\n",
      phase2_mean(unscaled), phase2_mean(scaled), phase2_mean(transfer));
  std::printf(
      "claim check: unscaled / scaled = %.2fx over Phase 2 (>1 reproduces "
      "the paper's\npredicted instability of an unscaled reward switch).\n",
      phase2_mean(unscaled) / phase2_mean(scaled));
  return 0;
}
