// The streaming engine's central promise: one run, many cores, one digest.
// The single-shard run (K = 1, the default) is the oracle; every
// multi-shard and multi-worker digest must be bit-identical to it —
// per seed, per system kind, with the cache/coop subsystem on, and under
// supernode churn. EXPECT_EQ on doubles is deliberate: the contract is
// exact equality, not tolerance.
#include "systems/streaming_sim.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace cloudfog::systems {
namespace {

ScenarioParams small_params(std::uint64_t seed, std::size_t shards) {
  ScenarioParams p = ScenarioParams::simulation_defaults(seed);
  p.num_players = 500;
  p.num_supernodes = 60;
  // Scale DC provisioning to the reduced population (same per-player
  // strain as the full-size experiments).
  p.dc_uplink_kbps = 1'250'000.0 * 500.0 / 10'000.0;
  p.sim_shards = shards;
  return p;
}

StreamingOptions fast_options(std::size_t players = 250) {
  StreamingOptions o;
  o.num_players = players;
  o.warmup_ms = 500.0;
  o.duration_ms = 2'000.0;
  o.drain_ms = 500.0;
  return o;
}

/// Every digest-bearing field of a StreamingResult, flattened for exact
/// comparison.
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
                           static_cast<double>(r.edge_supported),
                           static_cast<double>(r.cache.hits),
                           static_cast<double>(r.cache.misses),
                           static_cast<double>(r.cache.transcodes),
                           static_cast<double>(r.cache.evictions),
                           static_cast<double>(r.cache.cancelled_jobs),
                           static_cast<double>(r.cache.coop_probes),
                           static_cast<double>(r.cache.coop_hits),
                           r.cache.bytes_edge_kbit,
                           r.cache.bytes_cloud_kbit,
                           r.cache.bytes_peer_kbit};
  for (std::size_t g = 0; g < 5; ++g) {
    d.push_back(static_cast<double>(r.players_by_game[g]));
    d.push_back(r.continuity_by_game[g]);
    d.push_back(r.satisfied_by_game[g]);
  }
  return d;
}

StreamingResult run_at(SystemKind kind, std::uint64_t seed, std::size_t shards,
                       const StreamingOptions& options) {
  const Scenario scenario = Scenario::build(small_params(seed, shards));
  return run_streaming(kind, scenario, options);
}

TEST(ShardedStreaming, DigestMatchesOracleAcrossSeedsAndShardCounts) {
  const StreamingOptions options = fast_options();
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const StreamingResult oracle =
        run_at(SystemKind::kCloudFogB, seed, 1, options);
    EXPECT_GT(oracle.segments_generated, 1'000u);
    EXPECT_GT(oracle.supernode_supported, 0u);
    for (std::size_t shards : {2u, 4u, 8u}) {
      const StreamingResult r =
          run_at(SystemKind::kCloudFogB, seed, shards, options);
      EXPECT_EQ(digest(r), digest(oracle))
          << "seed " << seed << " shards " << shards;
    }
  }
}

TEST(ShardedStreaming, DigestInvariantInWorkerCount) {
  StreamingOptions options = fast_options();
  options.shard_workers = 1;
  const StreamingResult one = run_at(SystemKind::kCloudFogB, 3, 4, options);
  options.shard_workers = 3;
  const StreamingResult three = run_at(SystemKind::kCloudFogB, 3, 4, options);
  EXPECT_EQ(digest(one), digest(three));
}

TEST(ShardedStreaming, RepeatedRunsAreBitIdentical) {
  const StreamingOptions options = fast_options();
  const StreamingResult a = run_at(SystemKind::kCloudFogB, 7, 4, options);
  const StreamingResult b = run_at(SystemKind::kCloudFogB, 7, 4, options);
  EXPECT_EQ(digest(a), digest(b));
}

TEST(ShardedStreaming, CacheAndCoopDigestInvariant) {
  // Cooperative cross-supernode lookups are the only cross-shard message
  // edges, so this configuration exercises the conservative windows for
  // real (finite lookahead, probe/response traffic through the inboxes).
  const StreamingOptions options = fast_options();
  auto with_coop = [&](std::uint64_t seed, std::size_t shards) {
    ScenarioParams p = small_params(seed, shards);
    p.use_segment_cache = true;
    p.cache_coop_neighbors = 2;
    const Scenario scenario = Scenario::build(p);
    return run_streaming(SystemKind::kCloudFogAdapt, scenario, options);
  };
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const StreamingResult oracle = with_coop(seed, 1);
    EXPECT_GT(oracle.cache.hits + oracle.cache.misses, 0u);
    EXPECT_GT(oracle.cache.coop_probes, 0u);
    for (std::size_t shards : {2u, 4u, 8u}) {
      EXPECT_EQ(digest(with_coop(seed, shards)), digest(oracle))
          << "seed " << seed << " shards " << shards;
    }
  }
}

TEST(ShardedStreaming, SchedulingKindDigestInvariant) {
  const StreamingOptions options = fast_options();
  const StreamingResult oracle =
      run_at(SystemKind::kCloudFogA, 5, 1, options);
  for (std::size_t shards : {2u, 4u, 8u}) {
    EXPECT_EQ(digest(run_at(SystemKind::kCloudFogA, 5, shards, options)),
              digest(oracle))
        << "shards " << shards;
  }
}

StreamingOptions churn_options(const Scenario& scenario) {
  StreamingOptions o = fast_options();
  // Every supernode leaves mid-window and returns before the drain; the
  // engine ignores events for supernodes that serve nobody in this plan.
  for (std::size_t sn : scenario.supernode_players()) {
    o.supernode_churn.push_back({900.0, sn, true});
    o.supernode_churn.push_back({1'800.0, sn, false});
  }
  return o;
}

TEST(ShardedStreaming, ChurnDigestInvariantAcrossShardCounts) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const Scenario oracle_scenario = Scenario::build(small_params(seed, 1));
    const StreamingResult oracle = run_streaming(
        SystemKind::kCloudFogB, oracle_scenario, churn_options(oracle_scenario));
    for (std::size_t shards : {2u, 4u, 8u}) {
      const Scenario scenario = Scenario::build(small_params(seed, shards));
      const StreamingResult r = run_streaming(SystemKind::kCloudFogB, scenario,
                                              churn_options(scenario));
      EXPECT_EQ(digest(r), digest(oracle))
          << "seed " << seed << " shards " << shards;
    }
  }
}

TEST(ShardedStreaming, ChurnFailsPlayersOverToTheCloud) {
  // While every supernode is down its players stream from their home DC,
  // so measured cloud egress must strictly exceed the no-churn run.
  const Scenario scenario = Scenario::build(small_params(1, 4));
  const StreamingResult with_churn =
      run_streaming(SystemKind::kCloudFogB, scenario, churn_options(scenario));
  const StreamingResult without =
      run_streaming(SystemKind::kCloudFogB, scenario, fast_options());
  EXPECT_GT(with_churn.cloud_uplink_mbps, without.cloud_uplink_mbps);
  EXPECT_EQ(with_churn.segments_generated, without.segments_generated);
}

TEST(ShardedStreaming, ChurnWithSchedulingDigestInvariant) {
  // Churn is legal under the packet-level deadline scheduler (DESIGN.md
  // §14): a leave drains the departed sender's backlog into the failover
  // fluid queues. The drain runs in the departed supernode's own shard and
  // samples only per-player RNG streams, so the digest must stay invariant
  // in the shard count — the same oracle contract as the fluid kinds.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Scenario oracle_scenario = Scenario::build(small_params(seed, 1));
    const StreamingResult oracle = run_streaming(
        SystemKind::kCloudFogA, oracle_scenario, churn_options(oracle_scenario));
    EXPECT_GT(oracle.segments_generated, 1'000u);
    for (std::size_t shards : {2u, 4u, 8u}) {
      const Scenario scenario = Scenario::build(small_params(seed, shards));
      const StreamingResult r = run_streaming(SystemKind::kCloudFogA, scenario,
                                              churn_options(scenario));
      EXPECT_EQ(digest(r), digest(oracle))
          << "seed " << seed << " shards " << shards;
    }
  }
}

TEST(ShardedStreaming, ChurnWithSchedulingFailsOverToTheCloud) {
  // While every supernode is down its players (and the drained remainders
  // of their queued segments) stream from the home DC, so measured cloud
  // egress must strictly exceed the no-churn run, with no segment lost.
  const Scenario scenario = Scenario::build(small_params(1, 4));
  const StreamingResult with_churn =
      run_streaming(SystemKind::kCloudFogA, scenario, churn_options(scenario));
  const StreamingResult without =
      run_streaming(SystemKind::kCloudFogA, scenario, fast_options());
  EXPECT_GT(with_churn.cloud_uplink_mbps, without.cloud_uplink_mbps);
  EXPECT_EQ(with_churn.segments_generated, without.segments_generated);
}

TEST(ShardedStreaming, ObservabilityHasNoObserverEffectAcrossShards) {
  // With a registry or tracer installed, every shard's engine runs the
  // periodic sim sampler and the pool threads record into the caller's
  // sinks. The sampler's events sit in the same queues as the model's, so
  // this pins the pure-sink contract where that matters most: four shards
  // on several workers, finite windows (coop probes) and churn, on both the
  // fluid and the packet path. The observed run must match the unobserved
  // K = 4 run and the unobserved K = 1 oracle bit for bit.
  auto run = [](SystemKind kind, std::size_t shards) {
    ScenarioParams p = small_params(4, shards);
    p.use_segment_cache = true;
    p.cache_coop_neighbors = 2;
    const Scenario scenario = Scenario::build(p);
    StreamingOptions o = churn_options(scenario);
    o.shard_workers = 3;
    return run_streaming(kind, scenario, o);
  };
  for (SystemKind kind : {SystemKind::kCloudFogB, SystemKind::kCloudFogA}) {
    const StreamingResult oracle = run(kind, 1);
    const StreamingResult plain = run(kind, 4);
    obs::MetricsRegistry registry;
    obs::TraceRecorder recorder;
    const StreamingResult observed = [&] {
      obs::ScopedRegistry install_registry(registry);
      obs::ScopedTracer install_tracer(recorder);
      return run(kind, 4);
    }();
    EXPECT_GT(oracle.cache.coop_probes, 0u) << to_string(kind);
    EXPECT_EQ(digest(plain), digest(oracle)) << to_string(kind);
    EXPECT_EQ(digest(observed), digest(plain))
        << to_string(kind) << ": observability perturbed the K = 4 run";
    // Collection happened on the shards, not just on the calling thread.
    const obs::Counter* executed =
        registry.find_counter("sim.events.executed");
    ASSERT_NE(executed, nullptr);
    EXPECT_GT(executed->value(), 0u);
    EXPECT_NE(recorder.to_chrome_json().find(
                  "\"name\":\"sim.queue.depth\",\"cat\":\"counter\""),
              std::string::npos)
        << to_string(kind);
  }
}

TEST(ShardedStreaming, ChurnEventsMustAlternate) {
  const Scenario scenario = Scenario::build(small_params(1, 2));
  StreamingOptions o = fast_options();
  // Two leaves with no join in between — invalid for any supernode that
  // serves players (events for non-serving ones are inert, so script the
  // whole fleet to be sure at least one serving node trips the check).
  for (std::size_t sn : scenario.supernode_players()) {
    o.supernode_churn.push_back({800.0, sn, true});
    o.supernode_churn.push_back({900.0, sn, true});
  }
  EXPECT_THROW(run_streaming(SystemKind::kCloudFogB, scenario, o),
               std::logic_error);
}

}  // namespace
}  // namespace cloudfog::systems
