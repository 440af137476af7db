// Determinism regression: the whole reproduction rests on runs being a pure
// function of (scenario, options, seed). This test runs the full streaming
// pipeline twice with identical inputs and asserts the QoE results are
// bit-identical — not approximately equal: any drift (hash-order iteration,
// uninitialised reads, FP reassociation behind a flag change) must fail
// loudly here before it silently skews a figure.
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/session_manager.h"
#include "exec/run_executor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "systems/streaming_sim.h"
#include "util/rng.h"

namespace cloudfog::systems {
namespace {

const Scenario& small_scenario() {
  static const Scenario scenario = [] {
    ScenarioParams p = ScenarioParams::simulation_defaults(7);
    p.num_players = 400;
    p.num_supernodes = 40;
    p.dc_uplink_kbps = 1'250'000.0 * 400.0 / 10'000.0;
    return Scenario::build(p);
  }();
  return scenario;
}

StreamingOptions quick_options() {
  StreamingOptions o;
  o.num_players = 200;
  o.warmup_ms = 1'000.0;
  o.duration_ms = 3'000.0;
  o.drain_ms = 500.0;
  return o;
}

/// FNV-1a over the exact bit patterns of every field of a StreamingResult —
/// the "QoE digest". Two runs agree iff every metric is bit-identical.
std::uint64_t qoe_digest(const StreamingResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (byte * 8)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  const auto mix_double = [&mix](double d) {
    mix(std::bit_cast<std::uint64_t>(d));
  };
  mix_double(r.mean_response_latency_ms);
  mix_double(r.p95_response_latency_ms);
  mix_double(r.mean_continuity);
  mix_double(r.satisfied_fraction);
  mix_double(r.cloud_uplink_mbps);
  mix_double(r.mean_quality_level);
  mix(r.segments_generated);
  mix(r.packets_dropped);
  mix(r.supernode_supported);
  mix(r.edge_supported);
  for (std::size_t g = 0; g < r.players_by_game.size(); ++g) {
    mix(r.players_by_game[g]);
    mix_double(r.continuity_by_game[g]);
    mix_double(r.satisfied_by_game[g]);
  }
  return h;
}

class DeterminismTest : public ::testing::TestWithParam<SystemKind> {};

TEST_P(DeterminismTest, SameSeedSameDigest) {
  const auto first = run_streaming(GetParam(), small_scenario(), quick_options());
  const auto second = run_streaming(GetParam(), small_scenario(), quick_options());
  EXPECT_EQ(qoe_digest(first), qoe_digest(second))
      << "same (scenario, options, seed) produced diverging QoE metrics";
  // Pin a few fields individually so a digest mismatch is debuggable.
  EXPECT_EQ(first.segments_generated, second.segments_generated);
  EXPECT_EQ(first.packets_dropped, second.packets_dropped);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(first.mean_response_latency_ms),
            std::bit_cast<std::uint64_t>(second.mean_response_latency_ms));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(first.mean_continuity),
            std::bit_cast<std::uint64_t>(second.mean_continuity));
}

TEST_P(DeterminismTest, SeedSaltPerturbsTheRun) {
  // The converse guard: seed_salt exists to decorrelate repeat runs, so a
  // different salt must actually change the outcome (a digest that never
  // moves would mean the metrics ignore the stochastic inputs entirely).
  StreamingOptions salted = quick_options();
  salted.seed_salt = 1;
  const auto base = run_streaming(GetParam(), small_scenario(), quick_options());
  const auto other = run_streaming(GetParam(), small_scenario(), salted);
  EXPECT_NE(qoe_digest(base), qoe_digest(other));
}

TEST_P(DeterminismTest, ObservabilityHasNoObserverEffect) {
  // The obs subsystem's core contract (DESIGN.md §7): metrics, tracing and
  // the periodic sim-time sampler are pure sinks, so running with full
  // collection installed must produce a bit-identical QoE digest to running
  // with collection off. This is what lets benches collect artifacts
  // without invalidating the figures they reproduce.
  const auto plain =
      run_streaming(GetParam(), small_scenario(), quick_options());

  obs::MetricsRegistry registry;
  obs::TraceRecorder recorder;
  StreamingResult observed = [&] {
    obs::ScopedRegistry install_registry(registry);
    obs::ScopedTracer install_tracer(recorder);
    return run_streaming(GetParam(), small_scenario(), quick_options());
  }();

  EXPECT_EQ(qoe_digest(plain), qoe_digest(observed))
      << "installing the metrics registry / tracer perturbed the simulation";
  // And collection actually happened — this wasn't a vacuous comparison.
  const obs::Counter* executed = registry.find_counter("sim.events.executed");
  ASSERT_NE(executed, nullptr);
  EXPECT_GT(executed->value(), 0u);
  EXPECT_GT(recorder.event_count(), 0u);
  // The periodic sampler and the run's start/end instants reached the trace.
  const std::string trace = recorder.to_chrome_json();
  EXPECT_NE(trace.find("\"name\":\"sim.queue.depth\",\"cat\":\"counter\""),
            std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"streaming.start\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"streaming.end\""), std::string::npos);
}

TEST(ParallelDeterminismTest, JobsOneAndJobsEightProduceIdenticalDigests) {
  // The executor's headline guarantee, checked on a real fig5-style fast
  // sweep: fanning the (system × seed) grid across 8 workers must return
  // bit-identical QoE digests to the sequential path, run for run. The
  // parallel leg also runs with a registry installed so the per-run
  // registry scoping + post-barrier merge path is exercised, not skipped.
  std::vector<StreamingRunSpec> specs;
  for (SystemKind kind : {SystemKind::kCloud, SystemKind::kEdgeCloud,
                          SystemKind::kCloudFogB, SystemKind::kCloudFogA}) {
    for (unsigned seed : {7u, 11u}) {
      StreamingRunSpec spec;
      spec.kind = kind;
      ScenarioParams p = ScenarioParams::simulation_defaults(seed);
      p.num_players = 400;
      p.num_supernodes = 40;
      p.dc_uplink_kbps = 1'250'000.0 * 400.0 / 10'000.0;
      spec.scenario = p;
      spec.options = quick_options();
      specs.push_back(spec);
    }
  }

  exec::RunExecutor sequential(1);
  const std::vector<StreamingResult> seq =
      run_streaming_batch(specs, sequential);

  obs::MetricsRegistry registry;
  const std::vector<StreamingResult> par = [&] {
    obs::ScopedRegistry install(registry);
    exec::RunExecutor parallel(8);
    return run_streaming_batch(specs, parallel);
  }();

  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(qoe_digest(seq[i]), qoe_digest(par[i]))
        << "run " << i << " diverged between --jobs=1 and --jobs=8";
  }
  // The merge actually delivered the workers' metrics to the caller.
  const obs::Counter* executed = registry.find_counter("sim.events.executed");
  ASSERT_NE(executed, nullptr);
  EXPECT_GT(executed->value(), 0u);
}

/// FNV-1a over every instrument of a registry, insertion-ordered: names,
/// counter values, gauge value/peak bit patterns, histogram count + sum bit
/// patterns — the "obs digest". Everything the _HOT cached instruments
/// write is folded in, so a nondeterministic hot-path metric (a cache
/// resolving against a stale registry, a lost single-writer increment)
/// breaks the digest even when the QoE digest is clean.
std::uint64_t obs_digest(const obs::MetricsRegistry& registry) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix_byte = [&h](std::uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ull;
  };
  const auto mix = [&mix_byte](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      mix_byte((v >> (byte * 8)) & 0xffu);
    }
  };
  registry.for_each([&](const std::string& name, const obs::Counter* c,
                        const obs::Gauge* g, const obs::Histogram* hist) {
    for (const char ch : name) mix_byte(static_cast<std::uint8_t>(ch));
    if (c != nullptr) mix(c->value());
    if (g != nullptr) {
      mix(std::bit_cast<std::uint64_t>(g->value()));
      mix(std::bit_cast<std::uint64_t>(g->max()));
    }
    if (hist != nullptr) {
      mix(hist->count());
      mix(std::bit_cast<std::uint64_t>(hist->sum()));
    }
  });
  return h;
}

TEST(HotStateObsDigestTest, HotInstrumentsAreDeterministicAndPresent) {
  // The slab/memo hot-path instruments (CF_OBS_*_HOT: per-callsite cached,
  // single-writer) must be as deterministic as the QoE metrics they ride
  // along with: two identical session-churn runs, each under a fresh
  // registry, must produce bit-identical obs digests, and the digest must
  // actually cover the hot-state instruments DESIGN.md §12 names.
  const auto run_churn = [](obs::MetricsRegistry& registry) {
    obs::ScopedRegistry install(registry);
    // A fresh world per run: the latency model's pair memo warms up inside
    // a topology, and its hit/miss counters are part of the digest — a
    // shared scenario would (correctly) report more hits on the second run.
    ScenarioParams params = ScenarioParams::simulation_defaults(7);
    params.num_players = 400;
    params.num_supernodes = 40;
    const Scenario scenario = Scenario::build(params);
    core::SessionManager mgr(scenario.topology(),
                             core::SupernodeManagerConfig{},
                             core::SessionManagerConfig{}, util::Rng(17));
    util::Rng churn(99);
    std::vector<NodeId> supernodes, joined;
    for (const std::size_t pop : scenario.supernode_players()) {
      const NodeId sn = scenario.player_host(pop);
      mgr.supernode_join(sn, scenario.supernode_capacity(pop),
                         scenario.supernode_uplink_kbps(pop));
      supernodes.push_back(sn);
    }
    for (std::size_t pop = 0; joined.size() < 200; ++pop) {
      if (scenario.is_supernode_player(pop)) continue;
      const NodeId p = scenario.player_host(pop);
      mgr.player_join(p, scenario.player_game(pop));
      joined.push_back(p);
    }
    // Churn: leaves + rejoins recycle slots (slot_reuse), a supernode
    // departure drives failover, both demand ledgers stay live.
    for (int i = 0; i < 100; ++i) {
      const std::size_t at = churn.index(joined.size());
      const NodeId p = joined[at];
      mgr.player_leave(p);
      mgr.player_join(p, static_cast<game::GameId>(churn.uniform_int(0, 4)));
    }
    (void)mgr.supernode_leave(supernodes[churn.index(supernodes.size())]);
  };

  obs::MetricsRegistry first, second;
  run_churn(first);
  run_churn(second);
  EXPECT_EQ(obs_digest(first), obs_digest(second))
      << "hot-path instruments diverged between identical runs";

  // Coverage guard: the digest is only meaningful if the hot instruments
  // were really collected.
  for (const char* counter : {"core.session.slot_reuse",
                              "net.latency.pair_memo.misses",
                              "core.supernode.assignments"}) {
    const obs::Counter* c = first.find_counter(counter);
    ASSERT_NE(c, nullptr) << counter;
    EXPECT_GT(c->value(), 0u) << counter;
  }
  for (const char* gauge : {"core.session.slots_live",
                            "core.session.handle_load_factor"}) {
    const obs::Gauge* g = first.find_gauge(gauge);
    ASSERT_NE(g, nullptr) << gauge;
    EXPECT_TRUE(g->ever_set()) << gauge;
    EXPECT_GT(g->max(), 0.0) << gauge;
  }
  ASSERT_NE(first.find_counter("net.latency.pair_memo.hits"), nullptr);
}

INSTANTIATE_TEST_SUITE_P(
    AllSystems, DeterminismTest,
    ::testing::Values(SystemKind::kCloud, SystemKind::kEdgeCloud,
                      SystemKind::kCloudFogB, SystemKind::kCloudFogA),
    [](const ::testing::TestParamInfo<SystemKind>& param_info) {
      switch (param_info.param) {
        case SystemKind::kCloud: return "Cloud";
        case SystemKind::kEdgeCloud: return "EdgeCloud";
        case SystemKind::kCloudFogB: return "CloudFogB";
        case SystemKind::kCloudFogA: return "CloudFogA";
        default: return "Other";
      }
    });

}  // namespace
}  // namespace cloudfog::systems
