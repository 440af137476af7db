// Exactness tests for the geographic grid index: nearest_k must return
// exactly what a brute-force (distance, id) sort would — same doubles, same
// ties, same order — across churn, duplicate positions, and every k.
#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/geo_grid.h"
#include "core/supernode_manager.h"
#include "net/geo.h"
#include "net/topology.h"
#include "util/rng.h"

namespace cloudfog::core {
namespace {

net::GeoPoint random_us_point(util::Rng& rng) {
  return net::GeoPoint{rng.uniform(25.0, 49.0), rng.uniform(-124.0, -67.0)};
}

std::vector<std::pair<double, NodeId>> brute_nearest_k(
    const std::vector<std::pair<NodeId, net::GeoPoint>>& members,
    const net::GeoPoint& from, std::size_t k) {
  std::vector<std::pair<double, NodeId>> all;
  all.reserve(members.size());
  for (const auto& [id, pos] : members)
    all.emplace_back(net::haversine_km(from, pos), id);
  std::sort(all.begin(), all.end());
  if (all.size() > k) all.resize(k);
  return all;
}

TEST(GeoGridTest, NearestKMatchesBruteForceAcrossSeedsAndSizes) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    for (std::size_t n : {1u, 3u, 17u, 64u, 200u}) {
      util::Rng rng(seed * 1000 + n);
      GeoGrid grid;
      std::vector<std::pair<NodeId, net::GeoPoint>> members;
      for (std::size_t i = 0; i < n; ++i) {
        const auto id = static_cast<NodeId>(rng.uniform_int(0, 1'000'000));
        if (std::any_of(members.begin(), members.end(),
                        [id](const auto& m) { return m.first == id; }))
          continue;
        const net::GeoPoint pos = random_us_point(rng);
        grid.insert(id, pos);
        members.emplace_back(id, pos);
      }
      for (std::size_t k : {1u, 2u, 8u, 64u, 500u}) {
        std::vector<std::pair<double, NodeId>> got;
        const net::GeoPoint from = random_us_point(rng);
        grid.nearest_k(from, k, got);
        EXPECT_EQ(got, brute_nearest_k(members, from, k))
            << "seed=" << seed << " n=" << n << " k=" << k;
      }
    }
  }
}

TEST(GeoGridTest, DistanceTiesBreakByAscendingId) {
  GeoGrid grid;
  const net::GeoPoint shared{40.0, -90.0};
  // Insert in descending id order so insertion order cannot mask the tie
  // break.
  for (NodeId id : {9u, 7u, 5u, 3u, 1u}) grid.insert(id, shared);
  grid.insert(100, {41.0, -90.0});

  std::vector<std::pair<double, NodeId>> got;
  grid.nearest_k({40.0, -95.0}, 3, got);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].second, 1u);
  EXPECT_EQ(got[1].second, 3u);
  EXPECT_EQ(got[2].second, 5u);
  EXPECT_EQ(got[0].first, got[2].first);
}

TEST(GeoGridTest, RemovalKeepsResultsExact) {
  util::Rng rng(99);
  GeoGrid grid;
  std::vector<std::pair<NodeId, net::GeoPoint>> members;
  for (NodeId id = 0; id < 120; ++id) {
    const net::GeoPoint pos = random_us_point(rng);
    grid.insert(id, pos);
    members.emplace_back(id, pos);
  }
  // Churn: remove members spread across cells, re-query after each batch.
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 7 && !members.empty(); ++i) {
      const std::size_t victim = rng.index(members.size());
      grid.remove(members[victim].first);
      members.erase(members.begin() +
                    static_cast<std::ptrdiff_t>(victim));
    }
    const net::GeoPoint from = random_us_point(rng);
    std::vector<std::pair<double, NodeId>> got;
    grid.nearest_k(from, 8, got);
    EXPECT_EQ(got, brute_nearest_k(members, from, 8)) << "round " << round;
  }
  EXPECT_EQ(grid.size(), members.size());
}

TEST(GeoGridTest, FarAwayQueryStillFindsEverything) {
  // Query from far outside the member envelope: the ring walk must expand
  // to the envelope instead of giving up, and the prune bound must not cut
  // off the only occupied cells.
  GeoGrid grid;
  grid.insert(1, {25.5, -80.2});   // Miami
  grid.insert(2, {47.6, -122.3});  // Seattle
  std::vector<std::pair<double, NodeId>> got;
  grid.nearest_k({49.0, -67.0}, 2, got);  // NE corner, empty cell
  ASSERT_EQ(got.size(), 2u);
  const double d1 = net::haversine_km({49.0, -67.0}, {25.5, -80.2});
  const double d2 = net::haversine_km({49.0, -67.0}, {47.6, -122.3});
  EXPECT_EQ(got[0], (std::pair<double, NodeId>{std::min(d1, d2),
                                               d1 < d2 ? 1u : 2u}));
  EXPECT_EQ(got[1], (std::pair<double, NodeId>{std::max(d1, d2),
                                               d1 < d2 ? 2u : 1u}));
}

TEST(GeoGridTest, AntimeridianNeighborIsNotPrunedAway) {
  // Query at lon -179: the member at +179 is ~222 km away but 179 raw cells
  // distant, while two decoys fill k within a dozen rings. A prune bound
  // built from raw longitude gaps alone breaks the walk around ring 11 and
  // never reaches the wrapped neighbor.
  GeoGrid grid;
  grid.insert(1, {0.0, 179.0});
  grid.insert(2, {0.0, -170.0});
  grid.insert(3, {0.0, -160.0});
  const std::vector<std::pair<NodeId, net::GeoPoint>> members = {
      {1, {0.0, 179.0}}, {2, {0.0, -170.0}}, {3, {0.0, -160.0}}};
  const net::GeoPoint from{0.0, -179.0};
  std::vector<std::pair<double, NodeId>> got;
  grid.nearest_k(from, 2, got);
  EXPECT_EQ(got, brute_nearest_k(members, from, 2));
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].second, 1u);  // the wrapped neighbor is the closest
}

TEST(GeoGridTest, NearestKAcrossAntimeridianMatchesBruteForce) {
  for (std::uint64_t seed : {21u, 22u, 23u}) {
    util::Rng rng(seed);
    GeoGrid grid;
    std::vector<std::pair<NodeId, net::GeoPoint>> members;
    for (NodeId id = 0; id < 150; ++id) {
      double lon = 165.0 + rng.uniform(0.0, 30.0);  // straddles +/-180
      if (lon >= 180.0) lon -= 360.0;
      const net::GeoPoint pos{rng.uniform(-55.0, 55.0), lon};
      grid.insert(id, pos);
      members.emplace_back(id, pos);
    }
    for (std::size_t k : {1u, 3u, 8u, 32u}) {
      for (int q = 0; q < 8; ++q) {
        double lon = 165.0 + rng.uniform(0.0, 30.0);
        if (lon >= 180.0) lon -= 360.0;
        const net::GeoPoint from{rng.uniform(-55.0, 55.0), lon};
        std::vector<std::pair<double, NodeId>> got;
        grid.nearest_k(from, k, got);
        EXPECT_EQ(got, brute_nearest_k(members, from, k))
            << "seed=" << seed << " k=" << k << " q=" << q;
      }
    }
  }
}

/// Test-local reference for SupernodeManager::assign: the same Section
/// III-A3 algorithm with the candidates found by brute_nearest_k over the
/// whole roster instead of the grid, and each probe computed through the
/// plain two-node latency call instead of the distance-carrying overload.
class BruteScanDirectory {
 public:
  BruteScanDirectory(const net::Topology& topology,
                     SupernodeManagerConfig config, util::Rng rng)
      : topology_(topology), config_(config), rng_(rng) {}

  void add_supernode(NodeId host, int capacity) {
    members_.emplace_back(host, topology_.host(host).position);
    spare_[host] = capacity;
  }

  Assignment assign(NodeId player, TimeMs l_max_ms) {
    std::vector<std::pair<TimeMs, NodeId>> qualified;
    for (const auto& candidate :
         brute_nearest_k(members_, topology_.host(player).position,
                         config_.candidate_count)) {
      const NodeId sn = candidate.second;
      TimeMs delay = topology_.expected_server_one_way_ms(sn, player);
      if (config_.probe_jitter_sigma > 0.0) {
        delay *= rng_.lognormal(0.0, config_.probe_jitter_sigma);
      }
      if (delay <= l_max_ms) qualified.emplace_back(delay, sn);
    }
    std::sort(qualified.begin(), qualified.end());  // by (delay, id)
    Assignment result;
    for (const auto& [delay, sn] : qualified) {
      if (result.direct_to_cloud() && spare_[sn] > 0) {
        --spare_[sn];
        ++total_assigned_;
        result.supernode = sn;
        result.delay_ms = delay;
      } else {
        result.backups.push_back(sn);
      }
    }
    return result;
  }

  std::int64_t total_assigned() const { return total_assigned_; }

 private:
  const net::Topology& topology_;
  SupernodeManagerConfig config_;
  util::Rng rng_;
  std::vector<std::pair<NodeId, net::GeoPoint>> members_;
  std::map<NodeId, int> spare_;  // unclaimed capacity slots
  std::int64_t total_assigned_ = 0;
};

// The manager-level guarantee: assignments through the spatial index are
// indistinguishable from the exhaustive scan — same chosen supernode, same
// delay doubles, same backups, same RNG consumption — across seeds and
// roster sizes, including capacity churn.
TEST(GeoGridTest, AssignWithIndexMatchesBruteForceScan) {
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    for (std::size_t roster : {2u, 9u, 40u, 150u}) {
      net::PlacementConfig pc;
      pc.seed = seed;
      pc.num_players = roster + 60;
      pc.num_edge_servers = 0;
      pc.num_datacenters = 1;
      net::Topology topo = net::build_topology(
          pc, net::LatencyParams::simulation_profile(seed));
      const auto players = topo.hosts_with_role(net::HostRole::kPlayer);

      const SupernodeManagerConfig cfg;
      SupernodeManager with_grid(topo, cfg, util::Rng(seed * 7));
      BruteScanDirectory brute(topo, cfg, util::Rng(seed * 7));
      for (std::size_t i = 0; i < roster; ++i) {
        with_grid.add_supernode(players[i], 2, 10'000.0);
        brute.add_supernode(players[i], 2);
      }

      // Tight-ish threshold so some assignments go direct-to-cloud and the
      // capacity of near supernodes fills up (exercising backups).
      for (std::size_t i = roster; i < players.size(); ++i) {
        const Assignment a = with_grid.assign(players[i], 40.0);
        const Assignment b = brute.assign(players[i], 40.0);
        EXPECT_EQ(a.supernode, b.supernode);
        EXPECT_EQ(a.delay_ms, b.delay_ms);
        EXPECT_EQ(a.backups, b.backups);
      }
      EXPECT_EQ(with_grid.total_assigned(), brute.total_assigned());
    }
  }
}

TEST(GeoGridTest, RemoveSupernodeWithAssignedPlayersThrows) {
  net::PlacementConfig pc;
  pc.seed = 4;
  pc.num_players = 4;
  pc.num_datacenters = 1;
  net::Topology topo =
      net::build_topology(pc, net::LatencyParams::simulation_profile(4));
  const auto players = topo.hosts_with_role(net::HostRole::kPlayer);

  SupernodeManagerConfig cfg;
  cfg.probe_jitter_sigma = 0.0;
  SupernodeManager mgr(topo, cfg, util::Rng(1));
  mgr.add_supernode(players[0], 4, 10'000.0);
  const Assignment a = mgr.assign(players[1], 1'000.0);
  ASSERT_EQ(a.supernode, players[0]);

  EXPECT_THROW(mgr.remove_supernode(players[0]), std::logic_error);
  mgr.release(players[0]);
  mgr.remove_supernode(players[0]);  // now fine
  EXPECT_EQ(mgr.supernode_count(), 0u);
}

}  // namespace
}  // namespace cloudfog::core
