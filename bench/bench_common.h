// Shared plumbing for the figure-reproduction benchmark binaries.
//
// Each binary regenerates one figure of the paper's Section IV: it builds
// the matching scenario (simulation profile = PeerSim, PlanetLab profile =
// the testbed), sweeps the figure's x-axis, and prints the same series the
// paper plots. Absolute values depend on our synthetic substrate; the
// reproduction target is the *shape* (see EXPERIMENTS.md).
//
// Environment:
//   CLOUDFOG_BENCH_FAST=1    shrink populations/windows ~4x (smoke runs)
//   CLOUDFOG_BENCH_SEEDS=n   number of seeds averaged (default 3)
//   CLOUDFOG_BENCH_JOBS=n    worker-pool width for sweeps (default: cores)
//   CLOUDFOG_BENCH_SHARDS=k  split each scenario-profile run into k
//                            shards (default 1)
//
// Command line (all default to off; see obs/bench_harness.h):
//   --jobs=N              sweep worker-pool width; 1 = sequential code path
//   --shards=K            sim_shards for the scenario profiles
//   --bench-json[=PATH]   machine-readable BENCH_<name>.json artifact
//   --metrics-out=PATH    metrics dump (.json/.csv/.jsonl)
//   --trace-out=PATH      Chrome trace_event JSON (open in Perfetto)
//   --bench-warmup=N --bench-repeats=N   timing discipline
//
// Output is bit-identical at any --jobs value: sweeps fan (config, seed)
// runs across exec::RunExecutor, which hands results back in submission
// order (see exec/run_executor.h and DESIGN.md §9). Output is likewise
// bit-identical at any --shards value, unset included — the streaming
// engine's digest is invariant in the shard count (DESIGN.md §13); CI
// byte-diffs an unset run against --shards=4 to hold that line.
#pragma once

#include <cstdlib>
#include <exception>
#include <functional>
#include <iostream>
#include <string>

#include "exec/run_executor.h"
#include "exec/sweep.h"
#include "obs/bench_harness.h"
#include "obs/timer.h"
#include "systems/scenario.h"
#include "util/env.h"
#include "util/flags.h"
#include "util/table.h"

namespace cloudfog::bench {

inline bool fast_mode() {
  const char* env = std::getenv("CLOUDFOG_BENCH_FAST");
  return env != nullptr && std::string(env) != "0";
}

inline std::size_t seed_count() {
  static const long n = util::env_long_or("CLOUDFOG_BENCH_SEEDS", 1, 50, 3);
  return static_cast<std::size_t>(n);
}

namespace detail {
/// --jobs override; 0 = not set (fall through to CLOUDFOG_BENCH_JOBS /
/// hardware_concurrency via exec::default_jobs()).
inline std::size_t& jobs_override() {
  static std::size_t value = 0;
  return value;
}

/// --shards override; 0 = not set (fall through to CLOUDFOG_BENCH_SHARDS).
inline std::size_t& shards_override() {
  static std::size_t value = 0;
  return value;
}
}  // namespace detail

/// Resolved sweep worker-pool width for this process.
inline std::size_t jobs() {
  const std::size_t override_value = detail::jobs_override();
  return override_value != 0 ? override_value : exec::default_jobs();
}

/// Resolved shard count for the scenario profiles: --shards beats
/// CLOUDFOG_BENCH_SHARDS. 0 = unset — profiles keep their sim_shards = 1.
inline std::size_t shards() {
  const std::size_t override_value = detail::shards_override();
  if (override_value != 0) return override_value;
  static const long n = util::env_long_or("CLOUDFOG_BENCH_SHARDS", 1, 64, 0);
  return static_cast<std::size_t>(n);
}

/// The process-wide sweep executor, sized by jobs(). First use pins the
/// width, so run_bench resolves --jobs before the body runs.
inline exec::RunExecutor& executor() {
  static exec::RunExecutor instance(jobs());
  return instance;
}

/// Scales a size down in fast mode.
inline std::size_t scaled(std::size_t full, std::size_t fast) {
  return fast_mode() ? fast : full;
}

/// The full-paper-scale simulation scenario (10,000 players, 5 DCs,
/// 45 edge servers, 600 supernodes) — shrunk 4x in fast mode with
/// proportional edge/supernode/datacenter-uplink scaling.
namespace detail {
/// Applies the --shards / CLOUDFOG_BENCH_SHARDS override to a profile.
inline void apply_shards(systems::ScenarioParams& p) {
  const std::size_t k = shards();
  if (k != 0) p.sim_shards = k;
}
}  // namespace detail

inline systems::ScenarioParams sim_profile(std::uint64_t seed) {
  systems::ScenarioParams p = systems::ScenarioParams::simulation_defaults(seed);
  if (fast_mode()) {
    p.num_players = 2'500;
    p.num_edge_servers = 11;
    p.num_supernodes = 150;
    p.dc_uplink_kbps /= 4.0;
  }
  detail::apply_shards(p);
  return p;
}

/// The PlanetLab-profile scenario (750 hosts, 2 DCs, 8 edge servers,
/// supernodes from 300 capable hosts).
inline systems::ScenarioParams planetlab_profile(std::uint64_t seed) {
  systems::ScenarioParams p = systems::ScenarioParams::planetlab_defaults(seed);
  if (fast_mode()) {
    p.num_players = 400;
    p.num_supernodes = 100;
    p.dc_uplink_kbps /= 2.0;
  }
  detail::apply_shards(p);
  return p;
}

inline void print_table(const util::Table& table) {
  std::cout << table.to_text() << '\n';
}

/// Fans `fn(config, seed_index)` over the grid via the process executor and
/// returns results indexed [config][seed] (submission order — aggregating
/// in index order reproduces the sequential accumulation). Wall-clock for
/// the whole sweep lands in the BENCH json "sweeps" section under `label`
/// when artifacts are being collected.
template <typename Config, typename Fn>
auto run_sweep(const std::string& label, const std::vector<Config>& configs,
               std::size_t seeds, Fn&& fn) {
  const std::uint64_t start_us = obs::wall_now_us();
  auto grid = exec::run_sweep(executor(), configs, seeds, std::forward<Fn>(fn));
  obs::record_sweep_wall_ms(
      label, static_cast<double>(obs::wall_now_us() - start_us) / 1000.0);
  return grid;
}

inline void print_header(const std::string& figure, const std::string& what) {
  std::cout << "################################################################\n"
            << "# " << figure << " — " << what << '\n'
            << "# profile sizes " << (fast_mode() ? "(FAST mode)" : "(paper scale)")
            << ", seeds averaged: " << seed_count() << '\n'
            << "################################################################\n\n";
}

/// Standard entry point for the figure benches: parses the obs harness
/// flags (rejecting anything unknown), then runs `body` under
/// obs::BenchHarness — once and uninstrumented unless an output flag asks
/// for artifacts. `name` keys the default BENCH_<name>.json filename.
inline int run_bench(int argc, const char* const* argv, const std::string& name,
                     const std::function<int()>& body) {
  try {
    const util::Flags flags(argc, argv);
    std::vector<std::string> known = obs::bench_flag_keys();
    known.push_back("help");
    known.push_back("jobs");
    known.push_back("shards");
    if (flags.has("help")) {
      std::cout << "bench_" << name << " — see the file header comment.\n"
                << "  --jobs=N    sweep worker-pool width (default: "
                   "CLOUDFOG_BENCH_JOBS or hardware cores; output is "
                   "bit-identical at any width)\n"
                << "  --shards=K  split each scenario-profile run into K "
                   "shards (default: CLOUDFOG_BENCH_SHARDS or 1; output is "
                   "bit-identical at any K)\n"
                << obs::bench_flags_help();
      return 0;
    }
    const auto unknown = flags.unknown(known);
    if (!unknown.empty()) {
      std::cerr << "unknown flag(s):";
      for (const auto& k : unknown) std::cerr << " --" << k;
      std::cerr << "\n";
      return 2;
    }
    const std::int64_t jobs_flag = flags.get_int("jobs", 0);
    if (flags.has("jobs") && (jobs_flag < 1 || jobs_flag > 512)) {
      std::cerr << "--jobs must be in [1, 512]\n";
      return 2;
    }
    detail::jobs_override() = static_cast<std::size_t>(jobs_flag);
    const std::int64_t shards_flag = flags.get_int("shards", 0);
    if (flags.has("shards") && (shards_flag < 1 || shards_flag > 64)) {
      std::cerr << "--shards must be in [1, 64]\n";
      return 2;
    }
    detail::shards_override() = static_cast<std::size_t>(shards_flag);
    obs::BenchHarness harness(name, obs::bench_options_from_flags(flags, name));
    return harness.run(body);
  } catch (const std::exception& e) {
    std::cerr << "bench_" << name << ": " << e.what() << "\n";
    return 2;
  }
}

}  // namespace cloudfog::bench
