// Repository benchmark driver: runs one named streaming workload against the
// public library API, times each call from outside, checks the simulated
// output and prints every metric with its unit. README.md in this directory
// documents the workloads, metrics and how to run it; perfbench/run.py builds
// and invokes this binary.
//
//   cloudfog_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                      [--scale full|tiny] [--reference <file>]
//                      [--write-reference <file>] [--trace-out <file>]
//
// --trace 0 measures the end-to-end metrics from untraced iterations;
// --trace 1 adds an installed obs::MetricsRegistry + obs::TraceRecorder
// iteration and the K=2 shard-invariance run, and prints the per-module
// metrics. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/timer.h"
#include "obs/trace.h"
#include "systems/assignment.h"
#include "systems/scenario.h"
#include "systems/streaming_sim.h"

using namespace cloudfog;
using systems::Scenario;
using systems::ScenarioParams;
using systems::StreamingOptions;
using systems::StreamingResult;
using systems::SystemKind;

namespace {

constexpr std::uint64_t kDefaultSeed = 1;
/// The world (topology, population, social graph, supernode roster) is part
/// of each workload's definition, like a scenario file: it is built from
/// this fixed seed. --seed generates the inputs the library is handed — the
/// active player set and its arrival order, and the churn script.
constexpr std::uint64_t kWorldSeed = 1;
constexpr std::size_t kShards = 4;
/// Shard pool threads. Two of the host's cores, not all of them: on a
/// shared 4-vCPU host, a pool as wide as the machine makes every window
/// barrier wait for the most contended vCPU, and run-to-run spread grows.
constexpr std::size_t kWorkers = 2;
/// Workloads with cross-shard traffic run one barrier round per lookahead
/// window, not one per run. On a virtual machine each round's thread
/// wake-ups cost whatever the host's load makes them, so these workloads
/// run the shard rounds inline on one worker.
constexpr std::size_t kWorkersFiniteWindows = 1;
constexpr std::size_t kInvarianceShards = 2;
/// Extra Scenario::build calls before the timed iterations, so setup_s is a
/// median of several set-ups even when a run fits only one iteration.
constexpr int kExtraSetups = 8;

// ---------------------------------------------------------------------------
// Clock, randomness, small helpers.

/// Seconds on obs::wall_now_us()'s clock, so the benchmark's spans and the
/// engine's own timer spans share one time base in the exported trace.
double now_s() { return static_cast<double>(obs::wall_now_us()) * 1e-6; }

/// splitmix64: the benchmark's own input generator, independent of the
/// library's RNG so a library change cannot change the generated inputs.
struct SplitMix {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(uniform() * static_cast<double>(n));
  }
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Whether one more repetition as long as the last one still ends within
/// `seconds` of `start`, so a run never overshoots its measuring time.
bool fits_another(double start, double last_s, double seconds) {
  return now_s() - start + last_s <= seconds;
}

std::string slug(SystemKind kind) {
  switch (kind) {
    case SystemKind::kCloud: return "cloud";
    case SystemKind::kEdgeCloud: return "edgecloud";
    case SystemKind::kCloudFogB: return "cloudfog_b";
    case SystemKind::kCloudFogA: return "cloudfog_a";
    default: return "other";
  }
}

// ---------------------------------------------------------------------------
// Workloads.

struct Workload {
  std::string name;
  ScenarioParams params;
  StreamingOptions options;  // explicit players filled; churn filled per scenario
  std::vector<SystemKind> kinds;
  SystemKind headline = SystemKind::kCloudFogB;
  bool check_ordering = false;  // CloudFog/B > EdgeCloud > Cloud continuity
  double churn_fraction = 0.0;  // share of supernodes that leave and rejoin
  std::uint64_t seed = kDefaultSeed;
};

/// Scales the 10k-player simulation profile by `f`, the way bench_shard
/// grows it: supernode and edge fleets and DC provisioning follow the
/// population so per-player strain stays comparable.
ScenarioParams scaled_profile(double f) {
  ScenarioParams p = ScenarioParams::simulation_defaults(kWorldSeed);
  p.num_players = static_cast<std::size_t>(10'000.0 * f);
  p.num_supernodes = std::max<std::size_t>(30, static_cast<std::size_t>(600.0 * f));
  p.num_edge_servers = std::max<std::size_t>(5, static_cast<std::size_t>(45.0 * f));
  p.dc_uplink_kbps *= f;
  p.sim_shards = kShards;
  return p;
}

bool make_workload(const std::string& name, std::uint64_t seed, bool tiny,
                   Workload& w) {
  w.name = name;
  w.seed = seed;
  std::size_t active = 0;
  std::size_t workers = kWorkers;
  if (name == "fig9_fluid" || name == "fig9_packet" || name == "cache_churn") {
    w.params = scaled_profile(tiny ? 0.05 : 1.0);
    active = tiny ? 250 : 8'000;
    w.options.warmup_ms = tiny ? 500.0 : 2'000.0;
    w.options.duration_ms = tiny ? 1'000.0 : 6'000.0;
    w.options.drain_ms = tiny ? 500.0 : 2'000.0;
    if (name == "fig9_fluid") {
      w.kinds = {SystemKind::kCloud, SystemKind::kEdgeCloud, SystemKind::kCloudFogB};
      w.headline = SystemKind::kCloudFogB;
      w.check_ordering = !tiny;  // a loaded-regime property: paper scale only
    } else if (name == "fig9_packet") {
      w.kinds = {SystemKind::kCloudFogA};
      w.headline = SystemKind::kCloudFogA;
    } else {
      w.kinds = {SystemKind::kCloudFogB};
      w.headline = SystemKind::kCloudFogB;
      w.params.use_segment_cache = true;
      w.params.cache_kbit_per_slot = 1'000.0;
      w.params.cache_coop_neighbors = 2;
      w.churn_fraction = 0.10;
      workers = kWorkersFiniteWindows;  // coop probes cross shards
    }
  } else {
    return false;
  }
  // Active players: a seeded partial Fisher-Yates draw, in draw order.
  SplitMix rng{seed ^ 0x5eed'0000'0000'0001ull};
  std::vector<std::size_t> all(w.params.num_players);
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  for (std::size_t i = 0; i < active; ++i) {
    std::swap(all[i], all[i + rng.below(all.size() - i)]);
  }
  all.resize(active);
  w.options.explicit_players = std::move(all);
  w.options.num_players = active;
  w.options.shard_workers =
      std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, workers);
  return true;
}

/// ~churn_fraction of the scenario's supernodes leave once inside the
/// measurement window and rejoin before it ends.
std::vector<systems::SupernodeChurnEvent> churn_script(const Workload& w,
                                                       const Scenario& scenario) {
  std::vector<systems::SupernodeChurnEvent> events;
  if (w.churn_fraction <= 0.0) return events;
  SplitMix rng{w.seed ^ 0xc400'0000'0000'0002ull};
  const TimeMs start = w.options.warmup_ms;
  const TimeMs window = w.options.duration_ms;
  for (std::size_t sn : scenario.supernode_players()) {
    if (rng.uniform() >= w.churn_fraction) continue;
    const TimeMs leave = start + window * (0.15 + 0.35 * rng.uniform());
    const TimeMs back = leave + window * (0.15 + 0.25 * rng.uniform());
    events.push_back({leave, sn, true});
    events.push_back({back, sn, false});
  }
  std::sort(events.begin(), events.end(), [](const auto& a, const auto& b) {
    return a.when_ms != b.when_ms ? a.when_ms < b.when_ms : a.pop_index < b.pop_index;
  });
  return events;
}

// ---------------------------------------------------------------------------
// Digest: every StreamingResult scalar, cache totals included (the same
// field list as tests/integration/sharded_streaming_test.cpp).

std::vector<double> digest_fields(const StreamingResult& r) {
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

/// FNV-1a over the bit patterns of every digest field of every run.
std::string digest_hex(const std::vector<StreamingResult>& results) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const StreamingResult& r : results) {
    for (double v : digest_fields(r)) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof bits);
      for (int b = 0; b < 8; ++b) {
        h ^= (bits >> (8 * b)) & 0xffu;
        h *= 0x100000001b3ull;
      }
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

// ---------------------------------------------------------------------------
// Correctness ledger: every run and every check is one attempt.

struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
    }
  }
};

/// One check per run: every fraction the result holds lies in [0,1] and the
/// run generated segments.
void check_ranges(Ledger& ledger, const std::vector<SystemKind>& kinds,
                  const std::vector<StreamingResult>& results) {
  auto in_unit = [](double v) { return v >= 0.0 && v <= 1.0; };
  for (std::size_t i = 0; i < results.size(); ++i) {
    const StreamingResult& r = results[i];
    bool ok = in_unit(r.mean_continuity) && in_unit(r.satisfied_fraction) &&
              r.segments_generated > 0;
    for (std::size_t g = 0; g < 5; ++g) {
      ok = ok && in_unit(r.continuity_by_game[g]) && in_unit(r.satisfied_by_game[g]);
    }
    ledger.check(ok, std::string(systems::to_string(kinds[i])) +
                         " fractions in [0,1] and segments generated");
  }
}

// ---------------------------------------------------------------------------
// Spans: the benchmark's own, recorded around each library call and exported
// as Chrome trace JSON on the wall track.

struct Span {
  std::string name;
  double start_s = 0.0;
  double dur_s = 0.0;
  int parent = -1;
  double child_s = 0.0;  // covered by children (benchmark spans or engine timers)
};

struct SpanLog {
  std::vector<Span> spans;
  double epoch_s = now_s();
  int open(const std::string& name, int parent) {
    spans.push_back({name, now_s(), 0.0, parent, 0.0});
    return static_cast<int>(spans.size()) - 1;
  }
  void close(int id) {
    Span& s = spans[static_cast<std::size_t>(id)];
    s.dur_s = now_s() - s.start_s;
    if (s.parent >= 0) spans[static_cast<std::size_t>(s.parent)].child_s += s.dur_s;
  }
};

// ---------------------------------------------------------------------------
// One iteration: build, assign, then every system of the workload.

struct Iteration {
  double build_s = 0.0;
  double assign_s = 0.0;
  double wall_s = 0.0;
  std::vector<double> run_s;  // parallel to Workload::kinds
  std::vector<StreamingResult> results;
  std::uint64_t assignments = 0;      // traced only: core.supernode.* deltas
  std::uint64_t direct_to_cloud = 0;
};

std::uint64_t counter_value(const obs::MetricsRegistry* reg, const char* name) {
  if (reg == nullptr) return 0;
  const obs::Counter* c = reg->find_counter(name);
  return c != nullptr ? c->value() : 0;
}

double timer_sum_s(const obs::MetricsRegistry* reg, const char* name) {
  if (reg == nullptr) return 0.0;
  const obs::Histogram* h = reg->find_histogram(name);
  return h != nullptr ? h->sum() / 1000.0 : 0.0;  // timers record ms
}

/// One run_streaming call, timed; the call and any throw count in the ledger.
StreamingResult run_counted(SystemKind kind, const Scenario& scenario,
                            const StreamingOptions& options, Ledger& ledger,
                            double& seconds) {
  StreamingResult result;
  bool ok = true;
  const double t = now_s();
  try {
    result = systems::run_streaming(kind, scenario, options);
  } catch (const std::exception& e) {
    ok = false;
    std::fprintf(stderr, "perfbench: run_streaming(%s) threw: %s\n",
                 systems::to_string(kind), e.what());
  }
  seconds = now_s() - t;
  ledger.check(ok, std::string("run_streaming ") + systems::to_string(kind) + " completes");
  return result;
}

/// `log`/`root` record spans under the caller's workload span; `reg` is the
/// installed registry whose counters and timers are read back (traced only).
Iteration run_iteration(const Workload& w, Ledger& ledger, SpanLog* log, int root,
                        const obs::MetricsRegistry* reg) {
  Iteration it;
  const double t0 = now_s();

  int span = log ? log->open("Scenario::build", root) : -1;
  const Scenario scenario = Scenario::build(w.params);
  it.build_s = now_s() - t0;
  if (log) log->close(span);

  StreamingOptions options = w.options;
  options.supernode_churn = churn_script(w, scenario);

  span = log ? log->open("assign_players", root) : -1;
  const std::uint64_t assigned0 = counter_value(reg, "core.supernode.assignments");
  const std::uint64_t direct0 = counter_value(reg, "core.supernode.direct_to_cloud");
  util::Rng assign_rng = scenario.fork_rng("perfbench.assign");
  const double ta = now_s();
  const systems::AssignmentPlan plan =
      systems::assign_players(w.headline, scenario, options.explicit_players, assign_rng);
  it.assign_s = now_s() - ta;
  it.assignments = counter_value(reg, "core.supernode.assignments") - assigned0;
  it.direct_to_cloud = counter_value(reg, "core.supernode.direct_to_cloud") - direct0;
  if (log) log->close(span);
  ledger.check(plan.players.size() == options.explicit_players.size(),
               "assign_players planned every active player");

  for (SystemKind kind : w.kinds) {
    span = log ? log->open(std::string("run_streaming ") + systems::to_string(kind), root)
               : -1;
    const double engine0 = timer_sum_s(reg, "timers.systems.shard_setup") +
                           timer_sum_s(reg, "timers.systems.shard_event_loop");
    double seconds = 0.0;
    it.results.push_back(run_counted(kind, scenario, options, ledger, seconds));
    it.run_s.push_back(seconds);
    if (log) {
      log->close(span);
      // The engine's own setup/event-loop timers are this span's children.
      log->spans[static_cast<std::size_t>(span)].child_s +=
          timer_sum_s(reg, "timers.systems.shard_setup") +
          timer_sum_s(reg, "timers.systems.shard_event_loop") - engine0;
    }
  }
  it.wall_s = now_s() - t0;
  return it;
}

std::size_t kind_index(const Workload& w, SystemKind kind) {
  return static_cast<std::size_t>(
      std::find(w.kinds.begin(), w.kinds.end(), kind) - w.kinds.begin());
}

/// Checks that hold on any seed: ranges, and the loaded-regime ordering.
void check_iteration(const Workload& w, const Iteration& it, Ledger& ledger) {
  check_ranges(ledger, w.kinds, it.results);
  if (w.check_ordering) {
    const double cloud = it.results[kind_index(w, SystemKind::kCloud)].mean_continuity;
    const double edge = it.results[kind_index(w, SystemKind::kEdgeCloud)].mean_continuity;
    const double fog = it.results[kind_index(w, SystemKind::kCloudFogB)].mean_continuity;
    ledger.check(fog > edge && edge > cloud,
                 "continuity ordering CloudFog/B > EdgeCloud > Cloud (" +
                     std::to_string(fog) + ", " + std::to_string(edge) + ", " +
                     std::to_string(cloud) + ")");
  }
}

// ---------------------------------------------------------------------------
// Reference digests: {"<scale>/<workload>": "<hex>"} for the default seed.

std::map<std::string, std::string> read_reference(const std::string& path) {
  std::map<std::string, std::string> refs;
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  // Flat object of string pairs; a minimal scan is enough for this format.
  std::size_t pos = 0;
  std::vector<std::string> strings;
  while ((pos = text.find('"', pos)) != std::string::npos) {
    const std::size_t end = text.find('"', pos + 1);
    if (end == std::string::npos) break;
    strings.push_back(text.substr(pos + 1, end - pos - 1));
    pos = end + 1;
  }
  for (std::size_t i = 0; i + 1 < strings.size(); i += 2) refs[strings[i]] = strings[i + 1];
  return refs;
}

void write_reference(const std::string& path, std::map<std::string, std::string> refs,
                     const std::string& key, const std::string& hex) {
  refs[key] = hex;
  std::ofstream out(path);
  out << "{\n";
  std::size_t i = 0;
  for (const auto& [k, v] : refs) {
    out << "  \"" << k << "\": \"" << v << "\"" << (++i < refs.size() ? ",\n" : "\n");
  }
  out << "}\n";
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(const Ledger& ledger, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-36s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string line = std::string("{\"correct\": ") +
                     (ledger.failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(ledger.attempted) +
                     ", \"failed\": " + std::to_string(ledger.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    line += (i ? ", " : "") + ("\"" + m.name + "\": {\"value\": ") + json_number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string reference;
  std::string write_reference;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", key.c_str());
      return false;
    }
    const std::string val = argv[++i];
    try {
      if (key == "--workload") a.workload = val;
      else if (key == "--seed") a.seed = std::stoull(val);
      else if (key == "--seconds") a.seconds = std::stod(val);
      else if (key == "--trace") a.trace = std::stoi(val) != 0;
      else if (key == "--scale") {
        if (val != "full" && val != "tiny") return false;
        a.tiny = val == "tiny";
      } else if (key == "--reference") a.reference = val;
      else if (key == "--write-reference") a.write_reference = val;
      else if (key == "--trace-out") a.trace_out = val;
      else {
        std::fprintf(stderr, "perfbench: unknown flag %s\n", key.c_str());
        return false;
      }
    } catch (const std::exception&) {
      std::fprintf(stderr, "perfbench: bad value for %s: %s\n", key.c_str(), val.c_str());
      return false;
    }
  }
  return !a.workload.empty();
}

/// One benchmark invocation's state: the workload, its correctness ledger
/// and the digest every iteration must reproduce.
struct Run {
  const Workload& w;
  const Args& args;
  std::string ref_key;
  std::map<std::string, std::string> refs;
  Ledger ledger;
  std::string first_digest;

  /// Every iteration must reproduce the first digest exactly; on the default
  /// seed the first must also match the stored reference.
  void check_digest(const Iteration& it) {
    const std::string hex = digest_hex(it.results);
    if (!first_digest.empty()) {
      ledger.check(hex == first_digest, "digest repeats across iterations");
      return;
    }
    first_digest = hex;
    if (args.seed == kDefaultSeed && !args.reference.empty() &&
        args.write_reference.empty()) {
      ledger.check(refs[ref_key] == hex, "digest " + hex + " matches reference " + refs[ref_key]);
    }
  }

  Iteration iterate(SpanLog* log, int root, const obs::MetricsRegistry* reg) {
    Iteration it = run_iteration(w, ledger, log, root, reg);
    check_iteration(w, it, ledger);
    check_digest(it);
    return it;
  }
};

/// --trace 0: untraced iterations for --seconds; medians of host times.
std::vector<Metric> measure_end_to_end(Run& run) {
  const Workload& w = run.w;
  const double start = now_s();
  std::vector<double> setups;
  for (int i = 0; i < kExtraSetups; ++i) {
    const double t = now_s();
    const Scenario s = Scenario::build(w.params);
    setups.push_back(now_s() - t);
  }
  // Peak RSS is read after the first iteration: later iterations only add
  // allocator fragmentation, which varies run to run.
  std::vector<Iteration> iters;
  double rss_mb = 0.0;
  do {
    iters.push_back(run.iterate(nullptr, -1, nullptr));
    if (iters.size() == 1) rss_mb = peak_rss_mb();
  } while (fits_another(start, iters.back().wall_s, run.args.seconds));

  std::vector<double> walls, rates;
  for (const Iteration& it : iters) {
    std::fprintf(stderr,
                 "perfbench: iteration wall %.4f s build %.4f s assign %.4f s\n",
                 it.wall_s, it.build_s, it.assign_s);
    setups.push_back(it.build_s);
    walls.push_back(it.wall_s);
    double segs = 0.0, secs = 0.0;
    for (std::size_t k = 0; k < it.results.size(); ++k) {
      segs += static_cast<double>(it.results[k].segments_generated);
      secs += it.run_s[k];
    }
    rates.push_back(ratio(segs, secs));
  }
  std::fprintf(stderr, "perfbench: %zu iterations, %zu set-ups; error_rate %.6f\n",
               iters.size(), setups.size(),
               ratio(static_cast<double>(run.ledger.failed),
                     static_cast<double>(run.ledger.attempted)));
  const StreamingResult& headline = iters.front().results[kind_index(w, w.headline)];
  return {
      {"wall_s", median(walls), "s"},
      {"setup_s", median(setups), "s"},
      {"segments_per_s", median(rates), "segments/s"},
      {"peak_rss_mb", rss_mb, "MB"},
      {"continuity", headline.mean_continuity, "fraction"},
      {"response_p95_ms", headline.p95_response_latency_ms, "ms"},
      {"cloud_mbps", headline.cloud_uplink_mbps, "Mbps"},
  };
}

/// --trace 1: sets of {untraced iteration, traced iteration, K=2 run} for
/// --seconds (at least one); per-module counters, timers and span self times.
std::vector<Metric> measure_per_layer(Run& run) {
  const Workload& w = run.w;
  Ledger& ledger = run.ledger;
  const std::size_t hi = kind_index(w, w.headline);
  struct Set {
    Iteration plain, traced;  // plain: baseline for the overhead and scaling ratios
    double k2_s = 0.0;
    obs::MetricsRegistry reg;
  };
  std::vector<std::unique_ptr<Set>> sets;
  obs::TraceRecorder recorder;
  SpanLog log;
  // The engine's timer spans are stamped relative to an epoch obs pins at
  // the first active ScopedTimer; pin it here, bracketed, so the
  // benchmark's spans can be placed on the same time base.
  {
    obs::MetricsRegistry scratch;
    obs::ScopedRegistry scoped(scratch);
    log.epoch_s = now_s();
    CF_TIMED_SCOPE("timers.perfbench.epoch");
  }
  const double start = now_s();
  double set_s = 0.0;
  do {
    const double set_start = now_s();
    auto set = std::make_unique<Set>();
    set->plain = run.iterate(nullptr, -1, nullptr);
    const int root = log.open("workload " + w.name, -1);
    {
      obs::ScopedRegistry scoped_reg(set->reg);
      obs::ScopedTracer scoped_tracer(recorder);
      set->traced = run.iterate(&log, root, &set->reg);
    }
    // K=2 shard-invariance run of the headline system, untraced.
    const int span =
        log.open("k2_invariance " + std::string(systems::to_string(w.headline)), root);
    Workload w2 = w;
    w2.params.sim_shards = kInvarianceShards;
    w2.options.shard_workers = std::min(w.options.shard_workers, kInvarianceShards);
    const Scenario s2 = Scenario::build(w2.params);
    w2.options.supernode_churn = churn_script(w2, s2);
    const StreamingResult r2 = run_counted(w.headline, s2, w2.options, ledger, set->k2_s);
    log.close(span);
    log.close(root);
    ledger.check(digest_hex({r2}) == digest_hex({set->traced.results[hi]}),
                 "K=2 and K=4 digests agree");
    sets.push_back(std::move(set));
    set_s = now_s() - set_start;
  } while (fits_another(start, set_s, run.args.seconds));

  // Timings: medians over sets; counts: the last set (they repeat exactly).
  const Set& last = *sets.back();
  const obs::MetricsRegistry* reg = &last.reg;
  auto med = [&](auto fn) {
    std::vector<double> v;
    for (const auto& s : sets) v.push_back(fn(*s));
    return median(v);
  };
  auto total_run = [](const Iteration& it) {
    double s = 0.0;
    for (double r : it.run_s) s += r;
    return s;
  };
  auto count = [&](const char* name) { return static_cast<double>(counter_value(reg, name)); };
  const double executed = count("sim.events.executed");
  const obs::Gauge* depth = reg->find_gauge("sim.queue.depth");
  const double event_loop_s =
      med([](const Set& s) { return timer_sum_s(&s.reg, "timers.systems.shard_event_loop"); });
  const double memo_hits = count("net.latency.pair_memo.hits");
  const double memo_misses = count("net.latency.pair_memo.misses");
  const double hits = count("cache.hits");
  const double misses = count("cache.misses");
  const StreamingResult& hr = last.traced.results[hi];
  std::vector<Metric> metrics = {
      {"sim.events_executed", executed, "count"},
      {"sim.events_scheduled", count("sim.events.scheduled"), "count"},
      {"sim.events_cancelled", count("sim.events.cancelled"), "count"},
      {"sim.events_purged", count("sim.events.purged"), "count"},
      {"sim.queue_depth_max", depth != nullptr ? depth->max() : 0.0, "count"},
      {"sim.ns_per_event", ratio(event_loop_s * 1e9, executed), "ns"},
      {"shard.setup_s",
       med([](const Set& s) { return timer_sum_s(&s.reg, "timers.systems.shard_setup"); }), "s"},
      {"shard.event_loop_s", event_loop_s, "s"},
      {"shard.scaling_k2_to_k4", med([&](const Set& s) { return ratio(s.k2_s, s.plain.run_s[hi]); }),
       "ratio"},
      {"core.assign_s", med([](const Set& s) { return s.traced.assign_s; }), "s"},
      {"core.supernode.assignments", static_cast<double>(last.traced.assignments), "count"},
      {"core.supernode.direct_to_cloud", static_cast<double>(last.traced.direct_to_cloud), "count"},
      {"core.scheduler.segments_enqueued", count("core.scheduler.segments_enqueued"), "count"},
      {"core.scheduler.packets_dropped", count("core.scheduler.packets_dropped"), "count"},
      {"core.scheduler.deadline_misses", count("core.scheduler.deadline_misses"), "count"},
      {"core.scheduler.segments_overflowed", count("core.scheduler.segments_overflowed"), "count"},
      {"core.scheduler.drop_ratio",
       ratio(count("core.scheduler.packets_dropped"), count("core.scheduler.segments_enqueued")),
       "pkt/segment"},
      {"core.adaptation.switches_down", count("core.adaptation.switches_down"), "count"},
      {"core.adaptation.switches_up", count("core.adaptation.switches_up"), "count"},
      {"stream.buffer.stalls", count("stream.buffer.stalls"), "count"},
      {"net.latency_samples", count("net.latency.samples"), "count"},
      {"net.pair_memo_hit_ratio", ratio(memo_hits, memo_hits + memo_misses), "fraction"},
      {"cache.hits", hits, "count"},
      {"cache.misses", misses, "count"},
      {"cache.evictions", count("cache.evictions"), "count"},
      {"cache.transcodes", count("cache.transcodes"), "count"},
      {"cache.hit_ratio", ratio(hits, hits + misses), "fraction"},
      {"cache.coop_probes", count("cache.coop_probes"), "count"},
      {"cache.coop_probe_hit_ratio", ratio(count("cache.coop_hits"), count("cache.coop_probes")),
       "fraction"},
      {"cache.bytes_cloud_kbit", hr.cache.bytes_cloud_kbit, "kbit"},
      {"cache.bytes_peer_kbit", hr.cache.bytes_peer_kbit, "kbit"},
  };
  for (SystemKind kind : {SystemKind::kCloud, SystemKind::kEdgeCloud, SystemKind::kCloudFogB,
                          SystemKind::kCloudFogA}) {
    const std::size_t k = kind_index(w, kind);
    metrics.push_back({"systems.run_streaming_s." + slug(kind),
                       k < w.kinds.size() ? med([&](const Set& s) { return s.traced.run_s[k]; })
                                          : 0.0,
                       "s"});
  }
  metrics.push_back(
      {"obs.trace_overhead",
       med([&](const Set& s) { return ratio(total_run(s.traced), total_run(s.plain)); }), "ratio"});

  // Spans: export every one; report each name's median total and self
  // time (duration minus the part its children cover) on stderr.
  std::vector<std::string> order;
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>> by_name;
  for (const Span& s : log.spans) {
    recorder.span(s.name, "perfbench", std::round((s.start_s - log.epoch_s) * 1e6),
                  std::round(s.dur_s * 1e6), obs::kWallTrack);
    auto [slot, fresh] = by_name.try_emplace(s.name);
    if (fresh) order.push_back(s.name);
    slot->second.first.push_back(s.dur_s);
    slot->second.second.push_back(s.dur_s - s.child_s);
  }
  for (const std::string& name : order) {
    const auto& [total, self] = by_name[name];
    std::fprintf(stderr, "perfbench: span %-28s x%zu  total %8.4f s  self %8.4f s\n",
                 name.c_str(), total.size(), median(total), median(self));
  }
  if (!run.args.trace_out.empty()) {
    std::ofstream out(run.args.trace_out);
    out << recorder.to_chrome_json();
    ledger.check(static_cast<bool>(out), "trace written to " + run.args.trace_out);
  }
  metrics.push_back({"error_rate",
                     ratio(static_cast<double>(ledger.failed),
                           static_cast<double>(ledger.attempted)),
                     "fraction"});
  return metrics;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: cloudfog_perfbench --workload <fig9_fluid|fig9_packet|"
                 "cache_churn> --seed <n> --seconds <s> --trace <0|1> "
                 "[--scale full|tiny] [--reference <file>] "
                 "[--write-reference <file>] [--trace-out <file>]\n");
    return 2;
  }
  Workload w;
  if (!make_workload(args.workload, args.seed, args.tiny, w)) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const std::string ref_key = std::string(args.tiny ? "tiny/" : "full/") + w.name;
  std::map<std::string, std::string> refs;
  if (!args.reference.empty()) {
    refs = read_reference(args.reference);
    if (args.seed == kDefaultSeed && !refs.contains(ref_key) &&
        args.write_reference.empty()) {
      std::fprintf(stderr, "perfbench: no reference digest %s in %s\n",
                   ref_key.c_str(), args.reference.c_str());
      return 2;
    }
  }
  std::fprintf(stderr, "perfbench: workload %s seed %llu scale %s trace %d shards %zu workers %zu\n",
               w.name.c_str(), static_cast<unsigned long long>(w.seed),
               args.tiny ? "tiny" : "full", args.trace ? 1 : 0, kShards,
               w.options.shard_workers);

  Run run{w, args, ref_key, refs, Ledger{}, std::string{}};
  const std::vector<Metric> metrics = args.trace ? measure_per_layer(run) : measure_end_to_end(run);
  if (!args.write_reference.empty() && args.seed == kDefaultSeed) {
    write_reference(args.write_reference, refs, ref_key, run.first_digest);
    std::fprintf(stderr, "perfbench: wrote %s = %s to %s\n", ref_key.c_str(),
                 run.first_digest.c_str(), args.write_reference.c_str());
  }
  std::fprintf(stderr, "perfbench: digest %s\n", run.first_digest.c_str());
  print_result(run.ledger, metrics);
  return 0;
}
