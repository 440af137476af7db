// Supernode directory and player-to-supernode assignment — paper
// Section III-A3.
//
// The cloud keeps a table of supernodes (address/coordinates/available
// capacity). When a player joins:
//   1. the cloud returns its physically closest supernode candidates
//      (by coordinate distance);
//   2. the player probes the transmission delay to each candidate and drops
//      those whose delay exceeds its threshold L_max (derived from its
//      game's response latency requirement);
//   3. the player picks the qualified supernode with the shortest delay and
//      available capacity, recording the rest as backups;
//   4. if no candidate qualifies, the player connects directly to the cloud.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/geo_grid.h"
#include "net/topology.h"
#include "util/rng.h"
#include "util/types.h"

namespace cloudfog::cache {
class EdgeCacheService;
}

namespace cloudfog::core {

/// Cloud-side record of one supernode.
struct SupernodeRecord {
  NodeId host = kInvalidNode;
  int capacity = 0;   // C_j: max normal nodes supported concurrently
  int assigned = 0;   // currently supported normal nodes
  Kbps upload_kbps = 0.0;  // c_j, for the incentive model / senders

  int available() const { return capacity - assigned; }
};

/// Outcome of an assignment request.
struct Assignment {
  /// The chosen supernode, or kInvalidNode when the player connects
  /// directly to the cloud.
  NodeId supernode = kInvalidNode;
  /// Probed transmission delay (one-way ms) to the chosen supernode.
  TimeMs delay_ms = 0.0;
  /// Qualified-but-not-chosen supernodes, nearest first.
  std::vector<NodeId> backups;

  bool direct_to_cloud() const { return supernode == kInvalidNode; }
};

struct SupernodeManagerConfig {
  /// How many physically-close candidates the cloud returns for probing.
  std::size_t candidate_count = 8;
  /// Measurement noise of a delay probe (lognormal sigma; 0 = exact).
  double probe_jitter_sigma = 0.05;
};

/// The cloud's supernode table plus the assignment algorithm.
class SupernodeManager {
 public:
  SupernodeManager(const net::Topology& topology, SupernodeManagerConfig config,
                   util::Rng rng);

  /// Couples the directory to the segment-cache service: supernodes added
  /// after this call get a cache sized to their capacity, and departing
  /// supernodes release their cache state (entries freed, in-flight
  /// transcode/fetch jobs cancelled). Attach before any supernode is
  /// registered; the service must outlive this manager. Null detaches.
  void attach_cache(cache::EdgeCacheService* service);

  /// Registers a supernode (idempotent-checked: a host may register once).
  /// `host` must be a host of the topology — its coordinates feed the
  /// spatial index. With a cache service attached, also provisions the
  /// node's segment cache (capacity slots x kbit_per_slot).
  void add_supernode(NodeId host, int capacity, Kbps upload_kbps);

  /// Deregisters a supernode (paper: supernodes notify the central server
  /// before leaving). The caller must have reassigned (released) its
  /// players first — removing a supernode with assigned > 0 would strand
  /// session-layer slots, so it is checked. With a cache service attached,
  /// the node's cache state is released with it: entries freed, in-flight
  /// jobs cancelled — CF_CHECKed so no cache entry outlives its supernode.
  void remove_supernode(NodeId host);

  bool is_supernode(NodeId host) const {
    return host < slot_of_.size() && slot_of_[host] != kRecordSlotFree;
  }
  std::size_t supernode_count() const { return roster_.size(); }
  /// The host's directory record. The reference is valid until the next
  /// add_supernode (the slab may grow); copy before mutating the roster.
  const SupernodeRecord& record(NodeId host) const;
  /// Registered supernodes in insertion order. The reference stays valid
  /// until the next add/remove; copy before mutating or reordering.
  const std::vector<NodeId>& supernodes() const;

  /// Runs the Section III-A3 algorithm for `player` whose game tolerates at
  /// most `l_max_ms` one-way streaming delay. On success the chosen
  /// supernode's assigned count is incremented. The reference points at a
  /// scratch reused by the next assign() call (keeping the per-join backups
  /// vector off the heap) — read or copy it before assigning again.
  const Assignment& assign(NodeId player, TimeMs l_max_ms);

  /// Claims one capacity slot on a specific supernode — used by the
  /// session layer's backup failover, where candidate discovery has
  /// already happened. Requires spare capacity.
  void claim(NodeId supernode);

  /// Releases the player's slot on `supernode` (no-op for the cloud).
  void release(NodeId supernode);

  /// Total configured capacity across supernodes. O(1): maintained as a
  /// running sum (assign() publishes the assigned total per join, so a
  /// roster walk here would put an O(supernodes) term on the hot path).
  std::int64_t total_capacity() const { return total_capacity_; }
  /// Total currently assigned players. O(1), same running-sum scheme.
  std::int64_t total_assigned() const { return total_assigned_; }

 private:
  struct Probe {
    TimeMs delay;
    NodeId sn;
  };
  static constexpr std::uint32_t kRecordSlotFree = 0xffffffffu;

  /// Slab record for a registered host (CF_CHECKed).
  SupernodeRecord& rec_at(NodeId host);
  const SupernodeRecord& rec_at(NodeId host) const;

  const net::Topology& topology_;
  SupernodeManagerConfig config_;
  cache::EdgeCacheService* cache_ = nullptr;  // optional, not owned
  util::Rng rng_;
  // Directory records in a slab with a dense NodeId→slot map: lookups on
  // the assign/claim/release hot paths are two array indexes instead of a
  // hash-map walk. Free slots are recycled LIFO (record reuse is not
  // observable: every read goes through the id-keyed map).
  std::vector<SupernodeRecord> records_;
  std::vector<std::uint32_t> slot_of_;  // NodeId → records_ slot
  std::vector<std::uint32_t> free_slots_;
  std::int64_t total_capacity_ = 0;  // running sums over live records
  std::int64_t total_assigned_ = 0;
  std::vector<NodeId> roster_;  // insertion-ordered ids for determinism
  GeoGrid grid_;                // roster by position, for assign()
  // Scratch reused across assign() calls to keep the hot path free of
  // steady-state allocations.
  std::vector<std::pair<double, NodeId>> candidates_;
  std::vector<Probe> qualified_;
  Assignment assign_result_;
};

}  // namespace cloudfog::core
