#include "core/supernode_manager.h"

#include <algorithm>

#include "cache/edge_cache_service.h"
#include "obs/metrics.h"
#include "util/check.h"

namespace cloudfog::core {

SupernodeManager::SupernodeManager(const net::Topology& topology,
                                   SupernodeManagerConfig config, util::Rng rng)
    : topology_(topology), config_(config), rng_(rng) {
  CF_CHECK_MSG(config.candidate_count >= 1, "need at least one candidate");
}

void SupernodeManager::attach_cache(cache::EdgeCacheService* service) {
  CF_CHECK_MSG(roster_.empty(),
               "attach the cache service before registering supernodes");
  cache_ = service;
}

SupernodeRecord& SupernodeManager::rec_at(NodeId host) {
  CF_CHECK_MSG(is_supernode(host), "host is not a registered supernode");
  return records_[slot_of_[host]];
}

const SupernodeRecord& SupernodeManager::rec_at(NodeId host) const {
  CF_CHECK_MSG(is_supernode(host), "host is not a registered supernode");
  return records_[slot_of_[host]];
}

void SupernodeManager::add_supernode(NodeId host, int capacity, Kbps upload_kbps) {
  CF_CHECK_MSG(capacity >= 1, "supernode capacity must be at least 1");
  CF_CHECK_MSG(upload_kbps > 0.0, "supernode upload capacity must be positive");
  CF_CHECK_MSG(!is_supernode(host), "host already registered as supernode");
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(records_.size());
    records_.emplace_back();
  }
  SupernodeRecord& rec = records_[slot];
  rec = SupernodeRecord{};
  rec.host = host;
  rec.capacity = capacity;
  rec.upload_kbps = upload_kbps;
  if (host >= slot_of_.size()) slot_of_.resize(host + 1, kRecordSlotFree);
  slot_of_[host] = slot;
  total_capacity_ += capacity;
  roster_.push_back(host);
  grid_.insert(host, topology_.host(host).position);
  if (cache_ != nullptr) cache_->add_supernode(host, capacity);
  CF_INVARIANT(records_.size() - free_slots_.size() == roster_.size(),
               "supernode directory and deterministic roster must stay in sync");
}

void SupernodeManager::remove_supernode(NodeId host) {
  SupernodeRecord& rec = rec_at(host);
  CF_CHECK_MSG(rec.assigned == 0,
               "removing a supernode with players still assigned — release "
               "or reassign them first");
  const std::uint32_t slot = slot_of_[host];
  total_capacity_ -= rec.capacity;
  rec = SupernodeRecord{};  // host reset to kInvalidNode: slot is free
  slot_of_[host] = kRecordSlotFree;
  free_slots_.push_back(slot);
  grid_.remove(host);
  roster_.erase(std::remove(roster_.begin(), roster_.end(), host), roster_.end());
  if (cache_ != nullptr) {
    // Departing node: its cache entries are freed and its in-flight
    // transcode/fetch jobs cancelled through the engine's O(1) cancel.
    cache_->remove_supernode(host);
    CF_CHECK_MSG(!cache_->has_supernode(host),
                 "cache entries outlived their departing supernode");
  }
  CF_INVARIANT(records_.size() - free_slots_.size() == roster_.size(),
               "supernode directory and deterministic roster must stay in sync");
}

const SupernodeRecord& SupernodeManager::record(NodeId host) const {
  return rec_at(host);
}

const std::vector<NodeId>& SupernodeManager::supernodes() const {
  return roster_;
}

const Assignment& SupernodeManager::assign(NodeId player, TimeMs l_max_ms) {
  CF_CHECK_MSG(l_max_ms > 0.0, "latency threshold must be positive");
  Assignment& result = assign_result_;
  result.supernode = kInvalidNode;
  result.delay_ms = 0.0;
  result.backups.clear();  // keeps its capacity — no per-join allocation
  if (roster_.empty()) return result;

  // Step 1 — cloud side: the closest candidates by coordinate distance
  // (node coordinates derived from IP addresses in the paper), found by the
  // grid index's expanding-ring search. Its candidate list is
  // element-for-element identical to an exhaustive roster scan (same
  // haversine doubles, ties by ascending id) — tests/core/geo_grid_test.cpp
  // pins assign() against that scan.
  const net::Host& player_host = topology_.host(player);
  const std::size_t k = std::min(config_.candidate_count, roster_.size());
  // Host::cos_lat is the precomputed net::cos_lat(position) the grid would
  // otherwise recompute per query.
  grid_.nearest_k(player_host.position, player_host.cos_lat, k, candidates_);

  // Step 2 — player side: probe transmission delay, filter by L_max. The
  // candidate distance is the exact haversine double the model would
  // recompute, so the distance-carrying probe overload is result-neutral.
  qualified_.clear();
  const net::Endpoint player_ep{player_host.id, player_host.position,
                                player_host.last_mile_ms, player_host.cos_lat};
  for (const auto& [dist_km, sn] : candidates_) {
    TimeMs delay = topology_.expected_server_one_way_ms(sn, player_ep, dist_km);
    if (config_.probe_jitter_sigma > 0.0) {
      delay *= rng_.lognormal(0.0, config_.probe_jitter_sigma);
    }
    if (delay <= l_max_ms) qualified_.push_back({delay, sn});
  }
  std::sort(qualified_.begin(), qualified_.end(),
            [](const Probe& a, const Probe& b) {
              return a.delay != b.delay ? a.delay < b.delay : a.sn < b.sn;
            });

  // Step 3 — choose the fastest qualified supernode with spare capacity;
  // the rest become backups.
  for (const Probe& p : qualified_) {
    SupernodeRecord& rec = records_[slot_of_[p.sn]];
    if (result.direct_to_cloud() && rec.available() > 0) {
      ++rec.assigned;
      ++total_assigned_;
      // Trust boundary: assignment must conserve capacity — a supernode can
      // never support more players than its configured C_j.
      CF_INVARIANT(rec.assigned <= rec.capacity,
                   "supernode assigned count must not exceed capacity");
      result.supernode = p.sn;
      result.delay_ms = p.delay;
    } else {
      result.backups.push_back(p.sn);
    }
  }
  // Step 4 — empty result means direct-to-cloud. Cached (_HOT) instruments:
  // assign() runs per join, and a per-call name lookup is measurable there.
  if (result.direct_to_cloud()) {
    CF_OBS_COUNT_HOT("core.supernode.direct_to_cloud", 1);
  } else {
    CF_OBS_COUNT_HOT("core.supernode.assignments", 1);
    CF_OBS_GAUGE_SET_HOT("core.supernode.assigned_total", total_assigned());
    CF_OBS_HIST_HOT("core.supernode.assignment_delay_ms", result.delay_ms);
  }
  return result;
}

void SupernodeManager::claim(NodeId supernode) {
  CF_CHECK_MSG(is_supernode(supernode), "claiming an unknown supernode");
  SupernodeRecord& rec = records_[slot_of_[supernode]];
  CF_CHECK_MSG(rec.available() > 0, "claim without spare capacity");
  ++rec.assigned;
  ++total_assigned_;
  CF_INVARIANT(rec.assigned <= rec.capacity,
               "supernode assigned count must not exceed capacity");
}

void SupernodeManager::release(NodeId supernode) {
  if (supernode == kInvalidNode) return;
  CF_CHECK_MSG(is_supernode(supernode), "releasing an unknown supernode");
  SupernodeRecord& rec = records_[slot_of_[supernode]];
  CF_CHECK_MSG(rec.assigned > 0, "release without assignment");
  --rec.assigned;
  --total_assigned_;
  CF_INVARIANT(rec.assigned >= 0,
               "supernode assigned count must stay non-negative");
}

}  // namespace cloudfog::core
