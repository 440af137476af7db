// Shard sweep: the space-parallel streaming engine from 10k to 100k
// players (ROADMAP item 2, DESIGN.md §13).
//
// For each population the same scenario runs at shard counts 1, 2, 4 and 8
// (or the single count named by --shards / CLOUDFOG_BENCH_SHARDS). Two
// things come out:
//
//   * the QoE digest, printed once per population — the engine's promise
//     is that it is bit-identical at every shard count, so the run aborts
//     if any count disagrees with the single-shard oracle, and the stdout
//     table is byte-identical whatever --shards value CI diffs with;
//   * wall-clock per (population, shards) run, recorded into the BENCH
//     json "benchmarks" section as ns per generated segment
//     (BM_ShardedStreaming/<players>/k<shards>) plus the whole-sweep
//     wall under sweeps.shard — timings are only meaningful from a
//     --jobs=1 run.
//
// Speedup acceptance (EXPERIMENTS.md A9) compares a --shards=1 artifact
// against a --shards=8 artifact from the same machine, skipped on boxes
// without the cores to show it:
//   bench_shard --shards=1 --bench-json=BENCH_shard_k1.json
//   bench_shard --shards=8 --bench-json=BENCH_shard_k8.json
//   python3 scripts/bench_compare.py BENCH_shard_k1.json BENCH_shard_k8.json
//       --require-speedup 'sweep/shard=2' --speedup-min-cores 8
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "systems/streaming_sim.h"
#include "util/check.h"

using namespace cloudfog;
using namespace cloudfog::systems;

namespace {

struct ShardConfig {
  std::size_t players = 0;  // scenario population
  std::size_t shards = 1;
};

struct ShardRun {
  ShardConfig config;
  StreamingResult result;
  double wall_ms = 0.0;  // measured; never printed to stdout
};

/// The full-scale simulation profile grown (or shrunk) proportionally from
/// its 10k-player shape: supernode and edge fleets and the datacenter
/// provisioning all scale with the population, so per-player strain — and
/// therefore the QoE digest's regime — stays comparable across sizes.
ScenarioParams scaled_params(std::size_t players, std::size_t shards) {
  ScenarioParams p = ScenarioParams::simulation_defaults(1);
  const double f = static_cast<double>(players) / 10'000.0;
  p.num_players = players;
  p.num_supernodes = std::max<std::size_t>(30, static_cast<std::size_t>(600.0 * f));
  p.num_edge_servers = std::max<std::size_t>(5, static_cast<std::size_t>(45.0 * f));
  p.dc_uplink_kbps *= f;
  p.sim_shards = shards;
  return p;
}

ShardRun run_config(const ShardConfig& config) {
  ShardRun run;
  run.config = config;
  const Scenario scenario =
      Scenario::build(scaled_params(config.players, config.shards));
  StreamingOptions options;
  options.num_players = config.players / 2;
  options.warmup_ms = bench::fast_mode() ? 500.0 : 2'000.0;
  options.duration_ms = bench::fast_mode() ? 2'000.0 : 6'000.0;
  options.drain_ms = bench::fast_mode() ? 500.0 : 2'000.0;
  const std::uint64_t start_us = obs::wall_now_us();
  run.result = run_streaming(SystemKind::kCloudFogB, scenario, options);
  run.wall_ms = static_cast<double>(obs::wall_now_us() - start_us) / 1000.0;
  return run;
}

/// Every digest-bearing scalar of a StreamingResult, for the cross-shard
/// bit-identity check (mirrors tests/integration/sharded_streaming_test).
std::vector<double> digest(const StreamingResult& r) {
  std::vector<double> d = {r.mean_response_latency_ms,
                           r.p95_response_latency_ms,
                           r.mean_continuity,
                           r.satisfied_fraction,
                           r.cloud_uplink_mbps,
                           r.mean_quality_level,
                           static_cast<double>(r.segments_generated),
                           static_cast<double>(r.packets_dropped),
                           static_cast<double>(r.supernode_supported),
                           static_cast<double>(r.edge_supported)};
  for (std::size_t g = 0; g < 5; ++g) {
    d.push_back(static_cast<double>(r.players_by_game[g]));
    d.push_back(r.continuity_by_game[g]);
    d.push_back(r.satisfied_by_game[g]);
  }
  return d;
}

}  // namespace

int main(int argc, char** argv) {
  return cloudfog::bench::run_bench(argc, argv, "shard", [&]() -> int {
    bench::print_header("Shard sweep",
                        "space-parallel streaming engine, one digest");

    const std::vector<std::size_t> populations =
        bench::fast_mode() ? std::vector<std::size_t>{1'000, 2'500}
                           : std::vector<std::size_t>{10'000, 30'000, 100'000};
    const std::vector<std::size_t> shard_counts =
        bench::shards() != 0 ? std::vector<std::size_t>{bench::shards()}
                             : std::vector<std::size_t>{1, 2, 4, 8};

    std::vector<ShardConfig> configs;
    for (std::size_t n : populations) {
      for (std::size_t k : shard_counts) configs.push_back({n, k});
    }

    const auto grid = bench::run_sweep(
        "shard", configs, 1,
        [](const ShardConfig& c, std::size_t) { return run_config(c); });

    util::Table table(
        "shard sweep digest (CloudFog/B, identical at every shard count)");
    table.set_header({"players", "mean_lat_ms", "p95_lat_ms", "continuity",
                      "satisfied", "cloud_mbps", "quality", "segments",
                      "supernode", "edge"});
    for (std::size_t pi = 0; pi < populations.size(); ++pi) {
      const ShardRun& oracle = grid[pi * shard_counts.size()][0];
      double base_wall = 0.0;
      for (std::size_t ki = 0; ki < shard_counts.size(); ++ki) {
        const ShardRun& run = grid[pi * shard_counts.size() + ki][0];
        CF_CHECK_MSG(digest(run.result) == digest(oracle.result),
                     "shard-count digest divergence at " +
                         std::to_string(run.config.players) + " players, " +
                         std::to_string(run.config.shards) + " shards");
        const double ns_per_segment =
            run.result.segments_generated > 0
                ? run.wall_ms * 1e6 /
                      static_cast<double>(run.result.segments_generated)
                : 0.0;
        obs::record_bench_result(
            "BM_ShardedStreaming/" + std::to_string(run.config.players) +
                "/k" + std::to_string(run.config.shards),
            ns_per_segment);
        if (run.config.shards == 1) base_wall = run.wall_ms;
        std::fprintf(stderr,
                     "bench_shard: %zu players, %zu shards: %.1f ms%s\n",
                     run.config.players, run.config.shards, run.wall_ms,
                     base_wall > 0.0 && run.config.shards != 1
                         ? ("  (" + util::format_double(base_wall / run.wall_ms, 2) +
                            "x vs 1 shard)")
                               .c_str()
                         : "");
      }
      const StreamingResult& r = oracle.result;
      table.add_row({std::to_string(oracle.config.players),
                     util::format_double(r.mean_response_latency_ms, 3),
                     util::format_double(r.p95_response_latency_ms, 3),
                     util::format_double(r.mean_continuity, 3),
                     util::format_double(r.satisfied_fraction, 3),
                     util::format_double(r.cloud_uplink_mbps, 3),
                     util::format_double(r.mean_quality_level, 3),
                     std::to_string(r.segments_generated),
                     std::to_string(r.supernode_supported),
                     std::to_string(r.edge_supported)});
    }
    bench::print_table(table);
    return 0;
  });
}
