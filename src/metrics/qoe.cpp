#include "metrics/qoe.h"

#include "util/check.h"

namespace cloudfog::metrics {

void PlayerQoE::add_latency(TimeMs latency_ms) {
  CF_CHECK_MSG(latency_ms >= 0.0, "latency must be non-negative");
  response_latency_ms.add(latency_ms);
}

void PlayerQoE::add_units(double total, double on_time) {
  CF_CHECK_MSG(total >= 0.0 && on_time >= -1e-9 && on_time <= total + 1e-9,
               "on-time units must lie in [0, total]");
  units_total += total;
  units_on_time += std::min(std::max(on_time, 0.0), total);
}

void QoECollector::add_latency(NodeId id, TimeMs latency_ms) {
  players_[id].add_latency(latency_ms);
}

void QoECollector::add_units(NodeId id, double total, double on_time) {
  players_[id].add_units(total, on_time);
}

double QoECollector::mean_response_latency_ms() const {
  if (players_.empty()) return 0.0;
  double total = 0.0;
  std::size_t counted = 0;
  for (const auto& [id, q] : players_) {
    if (q.response_latency_ms.count() > 0) {
      total += q.response_latency_ms.mean();
      ++counted;
    }
  }
  return counted == 0 ? 0.0 : total / static_cast<double>(counted);
}

double QoECollector::mean_continuity() const {
  if (players_.empty()) return 1.0;
  double total = 0.0;
  for (const auto& [id, q] : players_) total += q.continuity();
  return total / static_cast<double>(players_.size());
}

double QoECollector::satisfied_fraction(double threshold) const {
  if (players_.empty()) return 1.0;
  std::size_t satisfied = 0;
  for (const auto& [id, q] : players_)
    if (q.satisfied(threshold)) ++satisfied;
  return static_cast<double>(satisfied) / static_cast<double>(players_.size());
}

}  // namespace cloudfog::metrics
