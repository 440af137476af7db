// Window-barrier semantics of the shard cluster: the conservative bound,
// the run_before edge case (events exactly at the bound belong to the next
// window), canonical inbox drain order, horizon drops and the degenerate
// lookaheads.
#include "shard/cluster.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "shard/inbox.h"
#include "sim/simulator.h"

namespace cloudfog::shard {
namespace {

constexpr TimeMs kInf = std::numeric_limits<double>::infinity();

TEST(EffectiveShardCount, PositiveLookaheadKeepsRequest) {
  EXPECT_EQ(effective_shard_count(4, 5.0), 4u);
  EXPECT_EQ(effective_shard_count(8, 0.001), 8u);
  EXPECT_EQ(effective_shard_count(4, kInf), 4u);
}

TEST(EffectiveShardCount, NonPositiveLookaheadCollapsesToOne) {
  EXPECT_EQ(effective_shard_count(4, 0.0), 1u);
  EXPECT_EQ(effective_shard_count(8, -3.0), 1u);
  EXPECT_EQ(effective_shard_count(1, 0.0), 1u);
}

TEST(SimulatorRunBefore, EventExactlyAtBoundWaitsForNextWindow) {
  // The window-barrier edge case the whole scheme rests on: run_before(b)
  // must NOT fire an event at exactly b (a cross-shard message may still
  // arrive at b), while run_until(b) must.
  sim::Simulator sim;
  int fired = 0;
  sim.schedule_at(10.0, [&] { ++fired; });
  sim.run_before(10.0);
  EXPECT_EQ(fired, 0);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
  sim.run_until(10.0);
  EXPECT_EQ(fired, 1);
}

TEST(InboxExchange, DrainsInCanonicalOrder) {
  InboxExchange inbox(3);
  std::vector<std::string> order;
  // Posted out of time order, from two sources, with a tie at t=5.
  inbox.post(2, 0, 7.0, [&] { order.push_back("t7 src2"); });
  inbox.post(1, 0, 5.0, [&] { order.push_back("t5 src1 first"); });
  inbox.post(2, 0, 5.0, [&] { order.push_back("t5 src2"); });
  inbox.post(1, 0, 5.0, [&] { order.push_back("t5 src1 second"); });
  inbox.post(1, 0, 3.0, [&] { order.push_back("t3 src1"); });
  auto msgs = inbox.drain(0);
  ASSERT_EQ(msgs.size(), 5u);
  for (auto& m : msgs) m.fn();
  EXPECT_EQ(order,
            (std::vector<std::string>{"t3 src1", "t5 src1 first",
                                      "t5 src1 second", "t5 src2", "t7 src2"}));
  // Drained lanes are empty.
  EXPECT_TRUE(inbox.drain(0).empty());
}

TEST(InboxExchange, RejectsSameShardPost) {
  InboxExchange inbox(2);
  EXPECT_THROW(inbox.post(1, 1, 0.0, [] {}), std::logic_error);
}

TEST(ShardCluster, InfiniteLookaheadRunsOneWindow) {
  ShardCluster cluster(2, 1);
  int fired = 0;
  cluster.sim(0).schedule_at(30.0, [&] { ++fired; });
  cluster.sim(1).schedule_at(99.0, [&] { ++fired; });
  cluster.run(100.0, kInf);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(cluster.sim(0).now(), 100.0);
  EXPECT_DOUBLE_EQ(cluster.sim(1).now(), 100.0);
}

TEST(ShardCluster, CrossShardMessagesArriveInWindowOrder) {
  // Ping-pong between two shards with lookahead 10: shard 0 fires at t,
  // posts to shard 1 at t+10, which posts back at t+20, ... Every hop must
  // execute at its exact timestamp on the destination engine.
  ShardCluster cluster(2, 1);
  std::vector<std::pair<std::size_t, TimeMs>> log;
  std::function<void(std::size_t, TimeMs)> hop = [&](std::size_t at_shard,
                                                     TimeMs when) {
    log.emplace_back(at_shard, when);
    const std::size_t next = 1 - at_shard;
    const TimeMs arrival = when + 10.0;
    if (arrival >= 95.0) return;
    cluster.post(at_shard, next, arrival, [&, next, arrival] {
      EXPECT_DOUBLE_EQ(cluster.sim(next).now(), arrival);
      hop(next, arrival);
    });
  };
  cluster.sim(0).schedule_at(0.0, [&] { hop(0, 0.0); });
  cluster.run(95.0, 10.0);
  ASSERT_EQ(log.size(), 10u);  // t = 0, 10, ..., 90 alternating shards
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(log[i].first, i % 2);
    EXPECT_DOUBLE_EQ(log[i].second, 10.0 * static_cast<double>(i));
  }
}

TEST(ShardCluster, MessageArrivingExactlyAtWindowBoundRuns) {
  // Lookahead 10, event at t=0 posts a message arriving exactly at the
  // first window bound (t=10): legal (>= bound) and must execute at 10.
  ShardCluster cluster(2, 1);
  TimeMs ran_at = -1.0;
  cluster.sim(0).schedule_at(0.0, [&] {
    cluster.post(0, 1, 10.0, [&] { ran_at = cluster.sim(1).now(); });
  });
  cluster.run(50.0, 10.0);
  EXPECT_DOUBLE_EQ(ran_at, 10.0);
}

TEST(ShardCluster, MessageBeatingTheLookaheadIsRejected) {
  // A message arriving before the window bound proves the lookahead was
  // not conservative — the cluster must refuse to mis-order time.
  ShardCluster cluster(2, 1);
  cluster.sim(0).schedule_at(0.0, [&] {
    cluster.post(0, 1, 3.0, [] {});  // lookahead claims >= 10
  });
  EXPECT_THROW(cluster.run(50.0, 10.0), std::logic_error);
}

TEST(ShardCluster, MessagesInFlightAtHorizonAreDropped) {
  // A single engine never executes events past its horizon; a
  // message whose arrival lands beyond (or at) the horizon is dropped.
  ShardCluster cluster(2, 1);
  bool ran = false;
  cluster.sim(0).schedule_at(38.0, [&] {
    cluster.post(0, 1, 48.0, [&] { ran = true; });
  });
  cluster.run(40.0, 10.0);
  EXPECT_FALSE(ran);
}

TEST(ShardCluster, SingleShotEnforced) {
  ShardCluster cluster(2, 1);
  cluster.run(10.0, kInf);
  EXPECT_THROW(cluster.run(20.0, kInf), std::logic_error);
}

TEST(ShardCluster, RejectsNonPositiveLookahead) {
  ShardCluster cluster(2, 1);
  EXPECT_THROW(cluster.run(10.0, 0.0), std::logic_error);
}

TEST(ShardCluster, SingleSupernodeWorldDegeneratesCleanly) {
  // One shard: no windows, no inbox traffic — run_until straight to the
  // horizon regardless of lookahead. Fires at t = 1, 8, ..., 50: the
  // horizon-edge event runs (run_until semantics, legacy parity).
  ShardCluster cluster(1, 4);
  int fired = 0;
  cluster.sim(0).schedule_every(1.0, 7.0, [&] { ++fired; });
  cluster.run(50.0, 10.0);
  EXPECT_EQ(fired, 8);
}

TEST(ShardCluster, DigestInvariantInWorkerCount) {
  // Same event script at 1 worker and 4 workers must produce identical
  // execution traces per shard (worker count is pure mechanism).
  auto trace = [](std::size_t workers) {
    ShardCluster cluster(4, workers);
    std::vector<std::vector<TimeMs>> t(4);
    for (std::size_t s = 0; s < 4; ++s) {
      cluster.sim(s).schedule_every(0.5 + static_cast<double>(s), 3.0,
                                    [&, s] { t[s].push_back(cluster.sim(s).now()); });
      const std::size_t next = (s + 1) % 4;
      cluster.sim(s).schedule_at(2.0, [&, s, next] {
        cluster.post(s, next, 2.0 + 5.0, [&, next] {
          t[next].push_back(-cluster.sim(next).now());
        });
      });
    }
    cluster.run(30.0, 5.0);
    return t;
  };
  EXPECT_EQ(trace(1), trace(4));
}

TEST(ShardCluster, InstallsCallersObsSinksOnEveryShard) {
  // Shard rounds run on pool threads, whose thread-scoped sinks start out
  // null: the cluster installs the caller's tracer and a private registry
  // (merged back after the run) around every round task.
  obs::MetricsRegistry registry;
  obs::TraceRecorder recorder;
  obs::ScopedRegistry install_registry(registry);
  obs::ScopedTracer install_tracer(recorder);
  ShardCluster cluster(4, 4);
  for (std::size_t s = 0; s < 4; ++s) {
    cluster.sim(s).schedule_at(1.0 + static_cast<double>(s), [] {
      obs::trace_sim_instant("tick", "test", 0.0);
      if (obs::MetricsRegistry* r = obs::registry()) {
        r->counter("test.ticks").add();
      }
    });
  }
  cluster.run(10.0, kInf);
  EXPECT_EQ(recorder.event_count(), 4u);
  const obs::Counter* ticks = registry.find_counter("test.ticks");
  ASSERT_NE(ticks, nullptr);
  EXPECT_EQ(ticks->value(), 4u);
}

}  // namespace
}  // namespace cloudfog::shard
