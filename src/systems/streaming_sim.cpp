// The streaming engine — DESIGN.md §13. Every run_streaming call, at any
// shard count, runs here.
//
// One run, many cores, one digest: the world is split into K geographic
// shards along supernode geography (shard/partition.h), each shard owns a
// private slab event engine plus private copies of every piece of mutable
// state its entities touch (topology latency memo, sender/buffer slabs,
// QoE collector, cache service), and a shard::ShardCluster advances all K
// in conservative time windows whose lookahead is the minimum latency any
// cross-shard message can carry. K = 1 (the default) is one engine and one
// window, run inline on the calling thread.
//
// Sharding invariants:
//   * A supernode and every player it serves live on the same shard, so
//     the only cross-shard traffic is the cooperative cache protocol
//     (probe + response between supernode pairs). With cooperation off
//     there are no cross-shard edges at all, the lookahead is infinite and
//     the run is embarrassingly parallel (a single window).
//   * Every stochastic entity draws from its own RNG stream (player:
//     jitter/p<pop>, packet sender: jitter/sn<node>), so its sample
//     sequence is a function of its own event order only — the reason the
//     digest is invariant in the shard count: the K = 1 run is the oracle
//     every multi-shard digest is pinned to.
//   * All result reduction happens in a canonical order: per-player
//     accumulators in global slot order, per-supernode byte ledgers in
//     NodeId order, shard QoE maps merged per-player (each player lives in
//     exactly one shard). Remaining caveat: two *different* entities
//     colliding on an identical event timestamp could order differently
//     across shard counts — phases are continuous uniforms, so ties are
//     measure-zero.
//
// Supernode churn: scripted leave/join toggles.
// Leave releases the node's cache (cancelling in-flight jobs) and fails
// its players over to a per-player fluid queue at their home datacenter,
// provisioned at setup with a static share of the DC uplink (base DC load
// plus every at-risk player homed there); join re-registers an empty cache
// and the players return. Churn is shard-local by the co-location
// invariant. Under the packet-level scheduler kinds a leave additionally
// drains the departed sender's queued backlog and streams each segment's
// unsent remainder through the owning player's failover fluid queue (the
// in-flight packet, if any, still completes on the old path).
#include "systems/streaming_sim.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/edge_cache_service.h"
#include "core/rate_adaptation.h"
#include "core/supernode_sender.h"
#include "metrics/qoe.h"
#include "obs/metrics.h"
#include "obs/sim_hook.h"
#include "obs/timer.h"
#include "obs/trace.h"
#include "shard/cluster.h"
#include "shard/partition.h"
#include "sim/simulator.h"
#include "stream/queued_sender.h"
#include "stream/receiver_buffer.h"
#include "stream/stream_store.h"
#include "stream/video.h"
#include "util/check.h"
#include "util/stats.h"

namespace cloudfog::systems {

namespace {

/// Per-segment bookkeeping for packet-level (deadline-scheduled) delivery.
/// Lives in the owning shard's tracker slab; the slab handle travels with
/// the segment as VideoSegment::delivery_tag, so every per-packet hook
/// reaches this record (and through `slot`, the player) without a hash
/// lookup.
struct SegmentTracker {
  std::size_t slot = 0;  // global player slot (players_ index)
  TimeMs action_ms = 0.0;
  int live_packets = 0;
  TimeMs last_arrival = 0.0;
  bool delivered_any = false;
  bool measured = false;
};

struct ShardPlayer {
  std::size_t pop_index = 0;
  NodeId host = kInvalidNode;
  const game::GameProfile* profile = nullptr;  // catalog entry
  PlayerAssignment assignment;
  int level = 0;
  Kbps wan_cap_kbps = 0.0;
  double loss_prob = 0.0;
  Kbit arrived_at_last_tick = 0.0;
  std::optional<core::RateAdaptationController> controller;
  stream::StoreHandle buffer = stream::kNullHandle;
  stream::StoreHandle queue = stream::kNullHandle;  // DC/edge private queue
  // Churn fallback: per-player queue at the home DC, plus the loss of that
  // path; provisioned at setup for at-risk players only.
  stream::StoreHandle failover_queue = stream::kNullHandle;
  double failover_loss_prob = 0.0;
  bool failed_over = false;
  /// Handle of this player's supernode packet sender in the owning shard's
  /// packet_store (scheduling kinds only) — submit never hashes.
  stream::StoreHandle packet_sender = stream::kNullHandle;
  /// Private sample stream: every stochastic draw this player causes
  /// (pipeline jitter, VBR size, fluid propagation) comes from here.
  util::Rng rng{0};
  /// This player's entry in its shard's QoE collector, resolved by
  /// player_qoe() on the first record (the collector holds only players
  /// that recorded something); map nodes never move, so the per-packet
  /// paths skip the map lookup.
  metrics::PlayerQoE* qoe = nullptr;
  std::size_t shard = 0;
  // K-invariant accumulators, reduced in global slot order after the run.
  Kbit cloud_kbit = 0.0;
  double level_sum = 0.0;
  std::uint64_t level_count = 0;
  std::uint64_t segments = 0;
};

/// Per-supernode byte ledger, filled in the node's own event order by the
/// cache serve observer and reduced in NodeId order — the K-invariant
/// replacement for the service's fleet-order byte accumulators.
struct NodeLedger {
  double edge_kbit = 0.0;
  double cloud_kbit = 0.0;
  double peer_kbit = 0.0;
  double window_cloud_kbit = 0.0;  // cloud fetches inside the window
};

/// Everything one shard's entities may mutate at run time. No instance of
/// anything below is ever touched by two shards: the window barrier is the
/// only synchronisation the run needs.
struct Shard {
  explicit Shard(const net::Topology& t) : topo(t) {}

  sim::Simulator* sim = nullptr;  // owned by the cluster
  net::Topology topo;  // private copy: the latency memo is not shareable
  stream::FluidSenderStore fluid_store;
  stream::ReceiverBufferStore buffer_store;
  stream::SegmentFactory factory;
  metrics::QoECollector qoe;
  std::optional<cache::EdgeCacheService> cache;
  // Keyed by node, setup/churn only — never touched per packet.
  std::unordered_map<NodeId, stream::StoreHandle> sn_fluid;
  std::unordered_map<NodeId, stream::StoreHandle> packet;
  // Packet senders by value; completion events capture sender addresses,
  // so the slab must not grow once the first event runs — every sender is
  // created in setup_senders().
  stream::SlabStore<core::SupernodeSender> packet_store;
  // Per-segment trackers; handles travel as VideoSegment::delivery_tag.
  // Grows freely (no tracker address ever escapes into a callback).
  stream::SlabStore<SegmentTracker> tracker_store;
  std::map<NodeId, NodeLedger> ledger;  // NodeId order: canonical reduce
  std::uint64_t drops = 0;
};

struct SupernodeInfo {
  NodeId server = kInvalidNode;
  int slots = 1;
  Kbps uplink_kbps = 0.0;
  std::size_t shard = 0;
  std::vector<std::size_t> player_slots;  // global slots, ascending
  bool initially_absent = false;
  std::vector<SupernodeChurnEvent> churn;  // sorted, alternation-checked
};

/// One entry of a supernode's cooperative-probe rank order: the m nearest
/// other supernodes by (expected one-way latency, NodeId).
struct CoopNeighbor {
  NodeId id = kInvalidNode;
  std::size_t shard = 0;
  TimeMs latency_ms = 0.0;
};

/// One in-flight cooperative lookup. Written by the requester's shard;
/// peers only read `segment` (published before the probes are posted, so
/// the window barrier orders the accesses).
struct ProbeRound {
  enum class Resp : std::uint8_t { kPending, kHit, kMiss };
  std::size_t shard = 0;  // requester's shard
  NodeId requester = kInvalidNode;
  stream::VideoSegment segment;
  cache::EdgeCacheService::DeliverFn deliver;
  std::vector<Resp> responses;  // by neighbor rank
  bool resolved = false;
};

class StreamingEngine {
 public:
  StreamingEngine(SystemKind kind, const Scenario& scenario,
                  const StreamingOptions& options)
      : kind_(kind), scenario_(scenario), options_(options) {}

  StreamingResult run();

 private:
  void setup_players();
  void setup_supernode_infos();
  void setup_partition();
  void setup_coop();
  void build_shards();
  void setup_cache_services();
  void setup_senders();
  void setup_failover();
  void setup_churn();
  void start_segment_ticks();

  void on_action(std::size_t slot);
  void enqueue_segment(std::size_t slot, TimeMs t0);
  void submit_fluid(std::size_t slot, const stream::VideoSegment& seg);
  void submit_packet(std::size_t slot, stream::VideoSegment seg);
  void on_packet_delivery(std::size_t s, const core::PacketDelivery& d);
  void adaptation_tick(std::size_t slot);
  metrics::PlayerQoE& player_qoe(std::size_t slot);
  void apply_churn(NodeId server, bool leave);
  void fail_over_segment(Shard& sh,
                         const core::DeadlineScheduler::PendingSegment& pending);
  void start_probe_round(std::size_t s, NodeId node,
                         const stream::VideoSegment& seg, Kbit kbit,
                         cache::EdgeCacheService::DeliverFn deliver);
  void on_probe_response(const std::shared_ptr<ProbeRound>& round,
                         std::size_t rank, bool hit);
  /// Same-shard "messages" stay plain engine events (the exchange rejects
  /// src == dst); cross-shard ones go through the inbox.
  void post_or_local(std::size_t src, std::size_t dst, TimeMs when,
                     std::function<void()> fn);

  bool in_window(TimeMs t0) const {
    return t0 >= options_.warmup_ms &&
           t0 < options_.warmup_ms + options_.duration_ms;
  }
  StreamingResult assemble();

  SystemKind kind_;
  const Scenario& scenario_;
  StreamingOptions options_;

  // Declared before shards_ (destroyed after them): per-shard caches and
  // senders reference the cluster's simulators and must tear down first.
  std::optional<shard::ShardCluster> cluster_;
  std::vector<std::unique_ptr<Shard>> shards_;

  util::Rng jitter_base_{0};  // parent of every per-entity stream
  std::vector<ShardPlayer> players_;
  std::map<NodeId, SupernodeInfo> sn_infos_;  // NodeId order everywhere
  std::map<NodeId, std::vector<CoopNeighbor>> coop_;
  std::vector<shard::PartitionSite> sites_;  // parallel to sn_infos_ order
  shard::Partition partition_;
  TimeMs lookahead_ = std::numeric_limits<double>::infinity();
  std::size_t shard_count_ = 1;
  std::size_t active_supernodes_ = 0;
};

void StreamingEngine::setup_players() {
  // The fork labels and draw order below seed every digest: renaming a
  // label or reordering a draw changes every published figure.
  util::Rng rng = scenario_.fork_rng("streaming");
  const std::string salt = std::to_string(options_.seed_salt);
  jitter_base_ = rng.fork("jitter" + salt);
  util::Rng select_rng = rng.fork("select" + salt);

  std::vector<std::size_t> active;
  if (!options_.explicit_players.empty()) {
    active = options_.explicit_players;
    for (std::size_t p : active)
      CF_CHECK_MSG(p < scenario_.population().size(), "unknown player index");
  } else {
    CF_CHECK_MSG(options_.num_players <= scenario_.population().size(),
                 "more players requested than the population holds");
    const auto sample = select_rng.sample_indices(scenario_.population().size(),
                                                  options_.num_players);
    active.assign(sample.begin(), sample.end());
  }

  util::Rng assign_rng = rng.fork("assign" + salt);
  AssignmentPlan plan = assign_players(kind_, scenario_, active, assign_rng);
  active_supernodes_ = plan.active_supernodes.size();

  const ScenarioParams& params = scenario_.params();
  players_.reserve(plan.players.size());
  for (const PlayerAssignment& pa : plan.players) {
    ShardPlayer ps;
    ps.pop_index = pa.pop_index;
    ps.host = scenario_.player_host(pa.pop_index);
    ps.profile = &game::game_by_id(scenario_.player_game(pa.pop_index));
    ps.assignment = pa;
    ps.level = ps.profile->target_quality_level;
    ps.rng = jitter_base_.fork("p" + std::to_string(pa.pop_index));
    ps.loss_prob = scenario_.topology().server_loss_probability(
        pa.server, ps.host);
    if (params.tcp_window_kbit > 0.0) {
      const TimeMs rtt = std::max(
          1.0, scenario_.topology().expected_server_rtt_ms(pa.server, ps.host));
      ps.wan_cap_kbps = params.tcp_window_kbit / (rtt / 1000.0);
    }
    players_.push_back(std::move(ps));
  }
}

void StreamingEngine::setup_supernode_infos() {
  for (std::size_t slot = 0; slot < players_.size(); ++slot) {
    const ShardPlayer& ps = players_[slot];
    if (ps.assignment.type != ServerType::kSupernode) continue;
    const NodeId server = ps.assignment.server;
    auto it = sn_infos_.find(server);
    if (it == sn_infos_.end()) {
      SupernodeInfo info;
      info.server = server;
      info.uplink_kbps = scenario_.params().supernode_kbps_per_slot;
      for (std::size_t sn : scenario_.supernode_players()) {
        if (scenario_.player_host(sn) == server) {
          info.uplink_kbps = scenario_.supernode_uplink_kbps(sn);
          info.slots = scenario_.supernode_capacity(sn);
          break;
        }
      }
      it = sn_infos_.emplace(server, std::move(info)).first;
    }
    it->second.player_slots.push_back(slot);
  }

  for (const SupernodeChurnEvent& ev : options_.supernode_churn) {
    CF_CHECK_MSG(scenario_.is_supernode_player(ev.pop_index),
                 "churn event names a non-supernode player");
    const NodeId server = scenario_.player_host(ev.pop_index);
    const auto it = sn_infos_.find(server);
    // A supernode that serves nobody under this run's assignment plan has
    // no state to toggle; its events are inert (the caller cannot know the
    // plan up front, so scripting churn over all supernodes must be legal).
    if (it == sn_infos_.end()) continue;
    it->second.churn.push_back(ev);
  }
  for (auto& [server, info] : sn_infos_) {
    if (info.churn.empty()) continue;
    std::sort(info.churn.begin(), info.churn.end(),
              [](const SupernodeChurnEvent& a, const SupernodeChurnEvent& b) {
                return a.when_ms < b.when_ms;
              });
    for (std::size_t i = 1; i < info.churn.size(); ++i) {
      CF_CHECK_MSG(info.churn[i].when_ms > info.churn[i - 1].when_ms,
                   "churn events for one supernode must be strictly ordered");
      CF_CHECK_MSG(info.churn[i].leave != info.churn[i - 1].leave,
                   "churn events for one supernode must alternate");
    }
    info.initially_absent = !info.churn.front().leave;
  }
}

void StreamingEngine::setup_partition() {
  for (const auto& [server, info] : sn_infos_) {
    sites_.push_back({server, scenario_.topology().host(server).position,
                      static_cast<double>(info.player_slots.size())});
  }
  const std::size_t want =
      std::max<std::size_t>(1, scenario_.params().sim_shards);
  partition_ = shard::partition_sites(sites_, want);
  std::size_t site = 0;
  for (auto& [server, info] : sn_infos_) {
    info.shard = partition_.site_shard[site];
    ++site;
  }
  if (partition_.shard_count > 1) {
    const shard::AnchorIndex anchors(sites_, partition_);
    for (ShardPlayer& ps : players_) {
      if (ps.assignment.type == ServerType::kSupernode) {
        ps.shard = sn_infos_.at(ps.assignment.server).shard;
      } else {
        ps.shard =
            anchors.shard_of(scenario_.topology().host(ps.host).position);
      }
    }
  }
}

void StreamingEngine::setup_coop() {
  const ScenarioParams& params = scenario_.params();
  if (params.use_segment_cache && params.cache_coop_neighbors > 0) {
    for (const auto& [a, info_a] : sn_infos_) {
      std::vector<std::pair<TimeMs, NodeId>> ranked;
      ranked.reserve(sn_infos_.size() - 1);
      for (const auto& [b, info_b] : sn_infos_) {
        if (b == a) continue;
        ranked.emplace_back(
            scenario_.topology().expected_server_one_way_ms(a, b), b);
      }
      std::sort(ranked.begin(), ranked.end());
      const std::size_t m =
          std::min(params.cache_coop_neighbors, ranked.size());
      std::vector<CoopNeighbor>& list = coop_[a];
      list.reserve(m);
      for (std::size_t i = 0; i < m; ++i) {
        list.push_back({ranked[i].second, sn_infos_.at(ranked[i].second).shard,
                        ranked[i].first});
      }
    }
  }

  // Lookahead: the minimum latency any cross-shard message can carry. The
  // only cross-shard edges are coop probes/responses, each at least the
  // pair's expected one-way latency after its sending event; with no edges
  // the lookahead is infinite (a single window). Derived from the actual
  // edge set, not net::LatencyModel::min_route_ms() — the pair bias is
  // multiplicative and may undercut that closed-form floor.
  for (const auto& [a, list] : coop_) {
    const std::size_t sa = sn_infos_.at(a).shard;
    for (const CoopNeighbor& nb : list) {
      if (nb.shard != sa) lookahead_ = std::min(lookahead_, nb.latency_ms);
    }
  }
  shard_count_ =
      shard::effective_shard_count(partition_.shard_count, lookahead_);
  if (shard_count_ < partition_.shard_count) {
    // Zero-lookahead degenerate case: collapse to one shard (no windows,
    // no cross-shard edges). Unreachable with the current latency model
    // (expected one-way latencies are strictly positive) but kept sound.
    for (ShardPlayer& ps : players_) ps.shard = 0;
    for (auto& [server, info] : sn_infos_) info.shard = 0;
    for (auto& [a, list] : coop_)
      for (CoopNeighbor& nb : list) nb.shard = 0;
    lookahead_ = std::numeric_limits<double>::infinity();
  }
}

void StreamingEngine::build_shards() {
  cluster_.emplace(shard_count_, options_.shard_workers);
  shards_.reserve(shard_count_);
  for (std::size_t s = 0; s < shard_count_; ++s) {
    shards_.push_back(std::make_unique<Shard>(scenario_.topology()));
    shards_[s]->sim = &cluster_->sim(s);
  }
}

void StreamingEngine::setup_cache_services() {
  const ScenarioParams& params = scenario_.params();
  if (!params.use_segment_cache) return;
  cache::EdgeCacheServiceConfig cfg;
  cfg.kbit_per_slot = params.cache_kbit_per_slot;
  cfg.content_loop_segments = params.cache_content_loop_segments;
  cfg.admission.transcode.base_ms = params.cache_transcode_base_ms;
  cfg.admission.transcode.ms_per_kbit = params.cache_transcode_ms_per_kbit;
  cfg.admission.fetch_kbps = params.cache_fetch_kbps;
  cfg.admission.fetch_base_ms = params.cache_fetch_base_ms;
  cfg.admission.egress_cost_ms_per_kbit = params.cache_egress_cost_ms_per_kbit;
  for (std::size_t s = 0; s < shard_count_; ++s) {
    Shard& sh = *shards_[s];
    sh.cache.emplace(*sh.sim, cfg);
    sh.cache->set_serve_observer(
        [this, s](NodeId node, const stream::VideoSegment& seg,
                  const cache::EdgeCacheService::ServeOutcome& outcome) {
          NodeLedger& led = shards_[s]->ledger[node];
          switch (outcome.source) {
            case cache::ServeSource::kCacheHit:
            case cache::ServeSource::kTranscode:
              led.edge_kbit += outcome.content_kbit;
              break;
            case cache::ServeSource::kCloudFetch:
              led.cloud_kbit += outcome.content_kbit;
              if (in_window(seg.action_time_ms))
                led.window_cloud_kbit += outcome.content_kbit;
              break;
            case cache::ServeSource::kPeerHit:
              led.peer_kbit += outcome.content_kbit;
              break;
            case cache::ServeSource::kPeerProbe:
              break;  // bytes accounted at resolution (peer hit or fallback)
          }
        });
    if (!coop_.empty()) {
      sh.cache->set_fetch_interceptor(
          [this, s](NodeId node, const stream::VideoSegment& seg, Kbit kbit,
                    cache::EdgeCacheService::DeliverFn deliver) {
            const auto it = coop_.find(node);
            if (it == coop_.end() || it->second.empty()) return false;
            start_probe_round(s, node, seg, kbit, std::move(deliver));
            return true;
          });
    }
  }
  for (const auto& [server, info] : sn_infos_) {
    if (info.initially_absent) continue;
    shards_[info.shard]->cache->add_supernode(server, info.slots);
  }
}

void StreamingEngine::setup_senders() {
  const ScenarioParams& params = scenario_.params();
  std::unordered_map<NodeId, std::size_t> load;
  for (const ShardPlayer& ps : players_) ++load[ps.assignment.server];

  for (std::size_t slot = 0; slot < players_.size(); ++slot) {
    ShardPlayer& ps = players_[slot];
    Shard& sh = *shards_[ps.shard];
    if (uses_adaptation(kind_)) {
      ps.controller.emplace(*ps.profile, options_.cloudfog.adaptation);
      ps.buffer =
          sh.buffer_store.create(game::quality_for_level(ps.level).bitrate_kbps);
    }
    if (ps.assignment.type == ServerType::kSupernode) continue;
    const Kbps uplink = ps.assignment.type == ServerType::kDatacenter
                            ? params.dc_uplink_kbps
                            : params.edge_uplink_kbps;
    Kbps share = uplink / static_cast<double>(load.at(ps.assignment.server));
    if (ps.wan_cap_kbps > 0.0) share = std::min(share, ps.wan_cap_kbps);
    ps.queue = sh.fluid_store.create(share);
  }

  for (const auto& [server, info] : sn_infos_) {
    const std::size_t s = info.shard;
    Shard& sh = *shards_[s];
    if (uses_scheduling(kind_)) {
      const stream::StoreHandle handle = sh.packet_store.create(
          *sh.sim, info.uplink_kbps,
          core::SupernodeSender::Discipline::kDeadline,
          options_.cloudfog.scheduler,
          core::SupernodeSender::PropagationFn(
              [this, server, s](NodeId player, util::Rng& rng) {
                return shards_[s]->topo.sample_server_one_way_ms(server, player,
                                                                 rng);
              }),
          core::SupernodeSender::DeliveryFn(
              [this, s](const core::PacketDelivery& d) {
                on_packet_delivery(s, d);
              }),
          jitter_base_.fork("sn" + std::to_string(server)));
      core::SupernodeSender& sender = sh.packet_store.get(handle);
      // The delivery tag is the tracker slab handle: every per-packet hook
      // reaches its player's state with two array indexes, never a hash.
      sender.set_rate_cap([this, s](NodeId, std::uint64_t tag) {
        return players_[shards_[s]->tracker_store.get(tag).slot].wan_cap_kbps;
      });
      sender.set_loss_model([this, s](NodeId, std::uint64_t tag) {
        return players_[shards_[s]->tracker_store.get(tag).slot].loss_prob;
      });
      sender.set_drop_observer(
          [this, s](const stream::VideoSegment& seg, int) {
            Shard& owner = *shards_[s];
            if (!owner.tracker_store.contains(seg.delivery_tag)) return;
            SegmentTracker& t = owner.tracker_store.get(seg.delivery_tag);
            --t.live_packets;
            if (t.measured) ++owner.drops;
            if (t.live_packets <= 0) {
              if (t.delivered_any && t.measured) {
                player_qoe(t.slot).add_latency(t.last_arrival - t.action_ms);
              }
              owner.tracker_store.destroy(seg.delivery_tag);
            }
          });
      if (sh.cache) sender.attach_segment_cache(&*sh.cache, server);
      sh.packet.emplace(server, handle);
      for (std::size_t slot : info.player_slots)
        players_[slot].packet_sender = handle;
    } else {
      sh.sn_fluid.emplace(server, sh.fluid_store.create(info.uplink_kbps));
    }
  }
}

void StreamingEngine::setup_failover() {
  const ScenarioParams& params = scenario_.params();
  std::unordered_map<NodeId, std::size_t> dc_base;
  std::unordered_map<NodeId, std::size_t> at_risk;
  for (const ShardPlayer& ps : players_) {
    if (ps.assignment.type == ServerType::kDatacenter)
      ++dc_base[ps.assignment.server];
  }
  for (const auto& [server, info] : sn_infos_) {
    if (info.churn.empty()) continue;
    for (std::size_t slot : info.player_slots)
      ++at_risk[players_[slot].assignment.home_dc];
  }
  for (const auto& [server, info] : sn_infos_) {
    if (info.churn.empty()) continue;
    for (std::size_t slot : info.player_slots) {
      ShardPlayer& ps = players_[slot];
      Shard& sh = *shards_[ps.shard];
      const NodeId dc = ps.assignment.home_dc;
      ps.failover_loss_prob =
          scenario_.topology().server_loss_probability(dc, ps.host);
      // Static provisioning: the DC splits its uplink across its baseline
      // load plus every player that could fail over to it, so the share is
      // a setup-time constant (a dynamic share would couple all at-risk
      // players' state across shards).
      Kbps share = params.dc_uplink_kbps /
                   static_cast<double>(dc_base[dc] + at_risk[dc]);
      if (params.tcp_window_kbit > 0.0) {
        const TimeMs rtt = std::max(
            1.0, scenario_.topology().expected_server_rtt_ms(dc, ps.host));
        share = std::min(share, params.tcp_window_kbit / (rtt / 1000.0));
      }
      ps.failover_queue = sh.fluid_store.create(share);
      if (info.initially_absent) ps.failed_over = true;
    }
  }
}

void StreamingEngine::setup_churn() {
  for (const auto& [server, info] : sn_infos_) {
    for (const SupernodeChurnEvent& ev : info.churn) {
      shards_[info.shard]->sim->schedule_at(
          ev.when_ms, [this, srv = info.server, leave = ev.leave] {
            apply_churn(srv, leave);
          });
    }
  }
}

void StreamingEngine::start_segment_ticks() {
  const TimeMs period = scenario_.params().segment_period_ms();
  for (std::size_t slot = 0; slot < players_.size(); ++slot) {
    ShardPlayer& ps = players_[slot];
    Shard& sh = *shards_[ps.shard];
    const TimeMs phase = ps.rng.uniform(0.0, period);
    sh.sim->schedule_every(phase, period, [this, slot] { on_action(slot); });
    if (uses_adaptation(kind_)) {
      const Kbit tau =
          game::quality_for_level(ps.level).bitrate_kbps * period / 1000.0;
      sh.buffer_store.get(ps.buffer).on_arrival(0.0, tau);
      const TimeMs tick_phase =
          ps.rng.uniform(0.0, options_.adaptation_tick_ms);
      sh.sim->schedule_every(tick_phase, options_.adaptation_tick_ms,
                             [this, slot] { adaptation_tick(slot); });
    }
  }
}

void StreamingEngine::on_action(std::size_t slot) {
  ShardPlayer& ps = players_[slot];
  Shard& sh = *shards_[ps.shard];
  const TimeMs t0 = sh.sim->now();
  if (t0 >= options_.warmup_ms + options_.duration_ms) return;

  const ScenarioParams& params = scenario_.params();
  TimeMs pipeline = 0.0;
  if (ps.failed_over) {
    // Fallback pipeline: the home DC computes and renders; no update feed.
    pipeline +=
        sh.topo.sample_one_way_ms(ps.host, ps.assignment.home_dc, ps.rng);
    pipeline += params.compute_ms + params.render_ms;
  } else {
    if (ps.assignment.type == ServerType::kEdge) {
      pipeline += sh.topo.sample_one_way_ms(ps.host, ps.assignment.server,
                                            ps.rng);
    } else {
      pipeline += sh.topo.sample_one_way_ms(ps.host, ps.assignment.home_dc,
                                            ps.rng);
    }
    pipeline += params.compute_ms;
    if (ps.assignment.type == ServerType::kSupernode) {
      pipeline += sh.topo.sample_server_one_way_ms(
          ps.assignment.server, ps.assignment.home_dc, ps.rng);
    }
    pipeline += params.render_ms;
  }
  sh.sim->schedule_after(pipeline,
                         [this, slot, t0] { enqueue_segment(slot, t0); });
}

void StreamingEngine::enqueue_segment(std::size_t slot, TimeMs t0) {
  ShardPlayer& ps = players_[slot];
  Shard& sh = *shards_[ps.shard];
  const TimeMs period = scenario_.params().segment_period_ms();
  stream::VideoSegment seg =
      sh.factory.make(ps.host, ps.profile->id, ps.level, period, t0);
  const double sigma = scenario_.params().segment_size_sigma;
  if (sigma > 0.0) {
    seg.size_kbit *= ps.rng.lognormal(-0.5 * sigma * sigma, sigma);
  }
  if (in_window(t0)) {
    ++ps.segments;
    ps.level_sum += static_cast<double>(ps.level);
    ++ps.level_count;
    if (ps.assignment.type == ServerType::kDatacenter || ps.failed_over) {
      ps.cloud_kbit += seg.size_kbit;
    }
  }
  if (ps.failed_over) {
    submit_fluid(slot, seg);  // streams from the home DC, cache bypassed
  } else if (ps.assignment.type == ServerType::kSupernode &&
             uses_scheduling(kind_)) {
    submit_packet(slot, seg);
  } else if (ps.assignment.type == ServerType::kSupernode && sh.cache) {
    sh.cache->request(ps.assignment.server, seg,
                      [this, slot, seg] { submit_fluid(slot, seg); });
  } else {
    submit_fluid(slot, seg);
  }
}

void StreamingEngine::submit_fluid(std::size_t slot,
                                       const stream::VideoSegment& seg) {
  ShardPlayer& ps = players_[slot];
  Shard& sh = *shards_[ps.shard];
  const bool failed = ps.failed_over;
  const bool shared_queue =
      !failed && ps.assignment.type == ServerType::kSupernode;
  const stream::StoreHandle handle =
      failed ? ps.failover_queue
             : (shared_queue ? sh.sn_fluid.at(ps.assignment.server)
                             : ps.queue);
  stream::QueuedSender& sender = sh.fluid_store.get(handle);
  stream::SendSchedule sched = sender.enqueue(sh.sim->now(), seg.size_kbit);
  if (shared_queue && ps.wan_cap_kbps > 0.0 &&
      ps.wan_cap_kbps < sender.capacity()) {
    sched.end = sched.start + transmission_ms(seg.size_kbit, ps.wan_cap_kbps);
  }
  const NodeId origin = failed ? ps.assignment.home_dc : ps.assignment.server;
  const double loss = failed ? ps.failover_loss_prob : ps.loss_prob;
  const TimeMs prop = sh.topo.sample_server_one_way_ms(origin, ps.host, ps.rng);
  const TimeMs last_arrival = sched.end + prop;
  if (in_window(seg.action_time_ms)) {
    metrics::PlayerQoE& q = player_qoe(slot);
    q.add_latency(last_arrival - seg.action_time_ms);
    const Kbit on_time =
        sched.sent_by(seg.deadline_ms - prop, seg.size_kbit) * (1.0 - loss);
    q.add_units(seg.size_kbit, on_time);
  }
  if (ps.buffer != stream::kNullHandle) {
    const Kbit size = seg.size_kbit;
    sh.sim->schedule_at(last_arrival, [this, slot, size] {
      ShardPlayer& p = players_[slot];
      Shard& owner = *shards_[p.shard];
      owner.buffer_store.get(p.buffer).on_arrival(owner.sim->now(), size);
    });
  }
}

void StreamingEngine::submit_packet(std::size_t slot,
                                        stream::VideoSegment seg) {
  ShardPlayer& ps = players_[slot];
  Shard& sh = *shards_[ps.shard];
  const stream::StoreHandle tag = sh.tracker_store.create();
  SegmentTracker& tracker = sh.tracker_store.get(tag);
  tracker.slot = slot;
  tracker.action_ms = seg.action_time_ms;
  tracker.live_packets = stream::packet_count(seg.size_kbit);
  tracker.measured = in_window(seg.action_time_ms);
  if (tracker.measured) {
    player_qoe(slot).units_total += static_cast<double>(tracker.live_packets);
  }
  seg.delivery_tag = tag;
  // submit() may fire the drop observer, which can destroy trackers (this
  // one included) — don't touch `tracker` past this point.
  sh.packet_store.get(ps.packet_sender).submit(seg);
}

void StreamingEngine::on_packet_delivery(std::size_t s,
                                             const core::PacketDelivery& d) {
  Shard& sh = *shards_[s];
  if (!sh.tracker_store.contains(d.delivery_tag)) return;
  SegmentTracker& tracker = sh.tracker_store.get(d.delivery_tag);
  if (tracker.measured && d.on_time()) {
    player_qoe(tracker.slot).units_on_time += 1.0;
  }
  if (!d.lost) {
    tracker.delivered_any = true;
    tracker.last_arrival = std::max(tracker.last_arrival, d.arrival_ms);
  }
  --tracker.live_packets;
  const std::size_t slot = tracker.slot;
  if (tracker.live_packets <= 0) {
    if (tracker.measured && tracker.delivered_any) {
      player_qoe(slot).add_latency(tracker.last_arrival - tracker.action_ms);
    }
    sh.tracker_store.destroy(d.delivery_tag);
  }
  if (players_[slot].buffer != stream::kNullHandle && !d.lost) {
    const Kbit size = d.size_kbit;
    const TimeMs when = std::max(d.arrival_ms, sh.sim->now());
    sh.sim->schedule_at(when, [this, slot, size] {
      ShardPlayer& p = players_[slot];
      Shard& owner = *shards_[p.shard];
      owner.buffer_store.get(p.buffer).on_arrival(owner.sim->now(), size);
    });
  }
}

void StreamingEngine::adaptation_tick(std::size_t slot) {
  ShardPlayer& ps = players_[slot];
  Shard& sh = *shards_[ps.shard];
  stream::ReceiverBuffer& buffer = sh.buffer_store.get(ps.buffer);
  const TimeMs period = scenario_.params().segment_period_ms();
  const Kbps playback = game::quality_for_level(ps.level).bitrate_kbps;
  const Kbit tau = playback * period / 1000.0;
  const Kbit arrived = buffer.total_arrived_kbit();
  const Kbps download = (arrived - ps.arrived_at_last_tick) /
                        options_.adaptation_tick_ms * 1000.0;
  ps.arrived_at_last_tick = arrived;
  const auto decision = ps.controller->observe_rates(
      options_.adaptation_tick_ms, download, playback, tau);
  if (decision != core::RateAdaptationController::Decision::kHold) {
    ps.level = ps.controller->level();
    buffer.set_playback_rate(sh.sim->now(),
                             game::quality_for_level(ps.level).bitrate_kbps);
  }
}

metrics::PlayerQoE& StreamingEngine::player_qoe(std::size_t slot) {
  ShardPlayer& ps = players_[slot];
  if (ps.qoe == nullptr) {
    const auto key = static_cast<NodeId>(ps.pop_index);
    ps.qoe = &shards_[ps.shard]->qoe.player(key);
  }
  return *ps.qoe;
}

void StreamingEngine::apply_churn(NodeId server, bool leave) {
  const SupernodeInfo& info = sn_infos_.at(server);
  Shard& sh = *shards_[info.shard];
  if (leave) {
    if (sh.cache && sh.cache->has_supernode(server)) {
      sh.cache->remove_supernode(server);
    }
    for (std::size_t slot : info.player_slots)
      players_[slot].failed_over = true;
    if (uses_scheduling(kind_)) {
      // The departing sender abandons its queued backlog; each segment's
      // unsent remainder streams from the owning player's home DC through
      // the failover fluid queue. The in-flight packet (if any) still
      // completes on the old path and settles its tracker normally.
      core::SupernodeSender& sender =
          sh.packet_store.get(sh.packet.at(server));
      for (const core::DeadlineScheduler::PendingSegment& pending :
           sender.drain_pending()) {
        fail_over_segment(sh, pending);
      }
    }
  } else {
    if (sh.cache && !sh.cache->has_supernode(server)) {
      sh.cache->add_supernode(server, info.slots);
    }
    for (std::size_t slot : info.player_slots)
      players_[slot].failed_over = false;
  }
}

void StreamingEngine::fail_over_segment(
    Shard& sh, const core::DeadlineScheduler::PendingSegment& pending) {
  const stream::VideoSegment& seg = pending.segment;
  if (!sh.tracker_store.contains(seg.delivery_tag)) return;
  SegmentTracker& tracker = sh.tracker_store.get(seg.delivery_tag);
  ShardPlayer& ps = players_[tracker.slot];
  stream::QueuedSender& fluid = sh.fluid_store.get(ps.failover_queue);
  const stream::SendSchedule sched =
      fluid.enqueue(sh.sim->now(), pending.remaining_kbit);
  const TimeMs prop =
      sh.topo.sample_server_one_way_ms(ps.assignment.home_dc, ps.host, ps.rng);
  const TimeMs last_arrival = sched.end + prop;
  if (in_window(seg.action_time_ms)) ps.cloud_kbit += pending.remaining_kbit;
  if (tracker.measured && pending.remaining_kbit > 0.0) {
    // Fluid on-time fraction scaled to packet units and discounted by the
    // fallback path's loss — the fluid analogue of per-packet on_time().
    const Kbit on_time_kbit =
        sched.sent_by(seg.deadline_ms - prop, pending.remaining_kbit);
    player_qoe(tracker.slot).units_on_time +=
        on_time_kbit / pending.remaining_kbit *
        static_cast<double>(pending.remaining_packets) *
        (1.0 - ps.failover_loss_prob);
  }
  tracker.delivered_any = true;
  tracker.last_arrival = std::max(tracker.last_arrival, last_arrival);
  tracker.live_packets -= pending.remaining_packets;
  if (ps.buffer != stream::kNullHandle) {
    const Kbit size = pending.remaining_kbit;
    const std::size_t slot = tracker.slot;
    sh.sim->schedule_at(last_arrival, [this, slot, size] {
      ShardPlayer& p = players_[slot];
      Shard& owner = *shards_[p.shard];
      owner.buffer_store.get(p.buffer).on_arrival(owner.sim->now(), size);
    });
  }
  if (tracker.live_packets <= 0) {
    if (tracker.measured && tracker.delivered_any) {
      player_qoe(tracker.slot)
          .add_latency(tracker.last_arrival - tracker.action_ms);
    }
    sh.tracker_store.destroy(seg.delivery_tag);
  }
}

void StreamingEngine::start_probe_round(
    std::size_t s, NodeId node, const stream::VideoSegment& seg, Kbit kbit,
    cache::EdgeCacheService::DeliverFn deliver) {
  const std::vector<CoopNeighbor>& neighbors = coop_.at(node);
  auto round = std::make_shared<ProbeRound>();
  round->shard = s;
  round->requester = node;
  round->segment = seg;
  round->deliver = std::move(deliver);
  round->responses.assign(neighbors.size(), ProbeRound::Resp::kPending);
  const TimeMs t0 = shards_[s]->sim->now();
  const Kbps coop_kbps = scenario_.params().cache_coop_kbps;
  for (std::size_t rank = 0; rank < neighbors.size(); ++rank) {
    const CoopNeighbor nb = neighbors[rank];
    post_or_local(s, nb.shard, t0 + nb.latency_ms,
                  [this, round, rank, nb, kbit, coop_kbps] {
                    Shard& peer = *shards_[nb.shard];
                    const bool hit =
                        peer.cache && peer.cache->probe_hit(nb.id, round->segment);
                    TimeMs back = peer.sim->now() + nb.latency_ms;
                    if (hit && coop_kbps > 0.0)
                      back += transmission_ms(kbit, coop_kbps);
                    post_or_local(nb.shard, round->shard, back,
                                  [this, round, rank, hit] {
                                    on_probe_response(round, rank, hit);
                                  });
                  });
  }
}

void StreamingEngine::on_probe_response(
    const std::shared_ptr<ProbeRound>& round, std::size_t rank, bool hit) {
  round->responses[rank] = hit ? ProbeRound::Resp::kHit : ProbeRound::Resp::kMiss;
  if (round->resolved) return;
  Shard& sh = *shards_[round->shard];
  // Rank-canonical resolution: the winner is the lowest-rank peer that
  // hit, declared only once every lower rank has answered — K-invariant
  // because it depends on the rank order, never on response arrival order.
  for (const ProbeRound::Resp resp : round->responses) {
    if (resp == ProbeRound::Resp::kPending) return;
    if (resp == ProbeRound::Resp::kHit) {
      round->resolved = true;
      sh.cache->complete_peer_fetch(round->requester, round->segment,
                                    std::move(round->deliver));
      return;
    }
  }
  round->resolved = true;
  sh.cache->cloud_fetch_fallback(round->requester, round->segment,
                                 std::move(round->deliver));
}

void StreamingEngine::post_or_local(std::size_t src, std::size_t dst,
                                        TimeMs when,
                                        std::function<void()> fn) {
  if (src == dst) {
    shards_[src]->sim->schedule_at(when, std::move(fn));
  } else {
    cluster_->post(src, dst, when, std::move(fn));
  }
}

StreamingResult StreamingEngine::assemble() {
  // Trackers for segments still in flight at the horizon stay in their
  // shard's slab; the stores die with the shards.

  // Each player lives in exactly one shard, so the merged collector is a
  // disjoint union; the map key order makes every aggregate canonical.
  metrics::QoECollector merged;
  for (const auto& sh : shards_) {
    for (const auto& [id, q] : sh->qoe.all()) merged.player(id) = q;
  }
  std::map<NodeId, NodeLedger> ledger;
  for (const auto& sh : shards_) {
    for (const auto& [node, led] : sh->ledger) ledger[node] = led;
  }

  Kbit cloud_kbit = 0.0;
  double level_sum = 0.0;
  std::uint64_t level_count = 0;
  std::uint64_t segments = 0;
  for (const ShardPlayer& ps : players_) {
    cloud_kbit += ps.cloud_kbit;
    level_sum += ps.level_sum;
    level_count += ps.level_count;
    segments += ps.segments;
  }
  for (const auto& [node, led] : ledger) cloud_kbit += led.window_cloud_kbit;
  std::uint64_t drops = 0;
  for (const auto& sh : shards_) drops += sh->drops;

  StreamingResult result;
  result.mean_response_latency_ms = merged.mean_response_latency_ms();
  util::SampleSet per_player;
  for (const auto& [id, q] : merged.all()) {
    if (q.response_latency_ms.count() > 0)
      per_player.add(q.response_latency_ms.mean());
  }
  result.p95_response_latency_ms =
      per_player.empty() ? 0.0 : per_player.percentile(95.0);
  result.mean_continuity = merged.mean_continuity();
  result.satisfied_fraction = merged.satisfied_fraction();
  // Update-feed cost stays nominal (the assignment plan's active set):
  // churned supernodes keep their slot in the plan.
  const Kbps update_feed = scenario_.params().update_stream_kbps *
                           static_cast<double>(active_supernodes_);
  result.cloud_uplink_mbps =
      (cloud_kbit / (options_.duration_ms / 1000.0) + update_feed) / 1000.0;
  result.mean_quality_level =
      level_count > 0 ? level_sum / static_cast<double>(level_count) : 0.0;
  result.segments_generated = segments;
  result.packets_dropped = drops;
  std::size_t sn_served = 0, edge_served = 0;
  for (const ShardPlayer& ps : players_) {
    if (ps.assignment.type == ServerType::kSupernode) ++sn_served;
    if (ps.assignment.type == ServerType::kEdge) ++edge_served;
  }
  result.supernode_supported = sn_served;
  result.edge_supported = edge_served;

  if (scenario_.params().use_segment_cache) {
    cache::CacheTotals totals;
    for (const auto& sh : shards_) {
      const cache::CacheTotals& t = sh->cache->totals();
      totals.hits += t.hits;
      totals.misses += t.misses;
      totals.transcodes += t.transcodes;
      totals.evictions += t.evictions;
      totals.cancelled_jobs += t.cancelled_jobs;
      totals.coop_probes += t.coop_probes;
      totals.coop_hits += t.coop_hits;
    }
    // Byte totals from the NodeId-ordered ledgers, not the services' own
    // fleet-order accumulators — canonical summation order.
    for (const auto& [node, led] : ledger) {
      totals.bytes_edge_kbit += led.edge_kbit;
      totals.bytes_cloud_kbit += led.cloud_kbit;
      totals.bytes_peer_kbit += led.peer_kbit;
    }
    result.cache = totals;
  }

  std::array<double, 5> continuity_sum{};
  std::array<std::size_t, 5> satisfied_count{};
  for (const ShardPlayer& ps : players_) {
    const auto g = static_cast<std::size_t>(ps.profile->id);
    const metrics::PlayerQoE& q =
        merged.player(static_cast<NodeId>(ps.pop_index));
    ++result.players_by_game[g];
    continuity_sum[g] += q.continuity();
    if (q.satisfied()) ++satisfied_count[g];
  }
  for (std::size_t g = 0; g < 5; ++g) {
    if (result.players_by_game[g] > 0) {
      const auto n = static_cast<double>(result.players_by_game[g]);
      result.continuity_by_game[g] = continuity_sum[g] / n;
      result.satisfied_by_game[g] =
          static_cast<double>(satisfied_count[g]) / n;
    }
  }
  CF_OBS_COUNT("systems.streaming.segments_generated", segments);
  return result;
}

StreamingResult StreamingEngine::run() {
  CF_TIMED_SCOPE("timers.systems.run_streaming");
  {
    CF_TIMED_SCOPE("timers.systems.shard_setup");
    setup_players();
    setup_supernode_infos();
    setup_partition();
    setup_coop();
    build_shards();
    setup_cache_services();
    setup_senders();
    setup_failover();
    setup_churn();
    start_segment_ticks();
  }
  // Periodic queue-depth/throughput sampling on every shard's engine — a
  // pure observer (see obs/sim_hook.h), so it may be installed only when
  // collection is on without perturbing the QoE digest.
  const TimeMs horizon =
      options_.warmup_ms + options_.duration_ms + options_.drain_ms;
  if (obs::registry() != nullptr || obs::tracer() != nullptr) {
    obs::trace_sim_instant("streaming.start", "systems", 0.0);
    for (const auto& sh : shards_) {
      obs::install_sim_sampler(*sh->sim, options_.adaptation_tick_ms);
    }
  }
  {
    CF_TIMED_SCOPE("timers.systems.shard_event_loop");
    cluster_->run(horizon, lookahead_);
  }
  obs::trace_sim_instant("streaming.end", "systems", horizon);
  CF_OBS_COUNT("systems.streaming.runs", 1);
  return assemble();
}

}  // namespace

StreamingResult run_streaming(SystemKind kind, const Scenario& scenario,
                              const StreamingOptions& options) {
  CF_CHECK_MSG(options.num_players >= 1, "need at least one player");
  CF_CHECK_MSG(options.duration_ms > 0.0, "measurement window must be positive");
  StreamingEngine engine(kind, scenario, options);
  return engine.run();
}

std::vector<StreamingResult> run_streaming_batch(
    const std::vector<StreamingRunSpec>& runs, exec::RunExecutor& executor) {
  std::vector<std::pair<std::string, std::function<StreamingResult()>>> tasks;
  tasks.reserve(runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const StreamingRunSpec& spec = runs[i];
    tasks.emplace_back(
        "run=" + std::to_string(i) + " kind=" + std::string(to_string(spec.kind)) +
            " seed=" + std::to_string(spec.scenario.seed) +
            " salt=" + std::to_string(spec.options.seed_salt),
        [&spec] {
          const Scenario scenario = Scenario::build(spec.scenario);
          return run_streaming(spec.kind, scenario, spec.options);
        });
  }
  return executor.map(std::move(tasks));
}

}  // namespace cloudfog::systems
