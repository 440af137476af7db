// QoE accounting — the paper's three evaluation metrics:
//   * response latency: time from a player action to the arrival of the
//     video data responding to it;
//   * playback continuity: "the proportion of packets arrived within the
//     required response latency over all packets in a game video";
//   * satisfied player: receives >= 95% of its packets within its game's
//     response latency (the paper's Section-IV definition).
#pragma once

#include <cstdint>
#include <map>

#include "util/stats.h"
#include "util/types.h"

namespace cloudfog::metrics {

/// The paper's satisfaction threshold: >= 95% of packets on time.
inline constexpr double kSatisfactionThreshold = 0.95;

/// Per-player QoE accumulator.
struct PlayerQoE {
  util::RunningStats response_latency_ms;  // one sample per action/segment
  double units_total = 0.0;    // packets (packet-level) or kbit (fluid)
  double units_on_time = 0.0;  // arrived within the response latency

  /// Records a response-latency sample (must be non-negative).
  void add_latency(TimeMs latency_ms);
  /// Records delivered units (`on_time` <= `total`).
  void add_units(double total, double on_time);

  /// Playback continuity in [0, 1]; 1.0 before any data is recorded.
  double continuity() const {
    return units_total > 0.0 ? units_on_time / units_total : 1.0;
  }
  bool satisfied(double threshold = kSatisfactionThreshold) const {
    return continuity() >= threshold;
  }
};

/// Aggregates QoE over a set of players.
class QoECollector {
 public:
  /// Accumulator for `player` (created on first use).
  PlayerQoE& player(NodeId id) { return players_[id]; }
  const std::map<NodeId, PlayerQoE>& all() const { return players_; }
  std::size_t player_count() const { return players_.size(); }

  /// Records a response-latency sample for a player.
  void add_latency(NodeId id, TimeMs latency_ms);

  /// Records delivered units (`on_time` <= `total`).
  void add_units(NodeId id, double total, double on_time);

  /// Mean of the per-player mean response latencies (the paper's "average
  /// response latency per player"). 0 with no players.
  double mean_response_latency_ms() const;

  /// Mean per-player continuity. 1 with no players.
  double mean_continuity() const;

  /// Fraction of players with continuity >= threshold. 1 with no players.
  double satisfied_fraction(double threshold = kSatisfactionThreshold) const;

 private:
  std::map<NodeId, PlayerQoE> players_;  // ordered: deterministic reports
};

}  // namespace cloudfog::metrics
