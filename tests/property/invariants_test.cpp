// Property-based invariant tests: randomized workloads swept over seeds and
// configurations via TEST_P. Each suite pins one conservation law or bound
// that must hold for *every* input, not just the examples unit tests pick.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>

#include "core/deadline_scheduler.h"
#include "core/rate_adaptation.h"
#include "core/supernode_sender.h"
#include "sim/simulator.h"
#include "stream/queued_sender.h"
#include "stream/video.h"
#include "util/rng.h"

namespace cloudfog {
namespace {

// The sweep parameters below have no PrintTo, so gtest prints each one as a
// dump of its bytes and ctest registers that dump as the test name. The
// structs used to have padding, and its uninitialised bytes made the names
// change from build to build. Each struct now spells that padding out as
// `name_*` fields, which the test bodies never read. Their values are the
// padding bytes of the names under which these cases are recorded and
// tracked; the comment beside each case gives those bytes as they appear in
// its name, so changing a value renames the case.
using NameBytes3 = std::array<std::uint8_t, 3>;

// ---------------------------------------------------------------------------
// SupernodeSender conservation: submitted == delivered + dropped + lost,
// across discipline x loss x overload combinations.
struct SenderCase {
  std::uint64_t seed;
  bool deadline_discipline;
  NameBytes3 name_bytes;
  std::uint32_t name_tail;
  double loss_rate;
  Kbps uplink;
};
static_assert(sizeof(SenderCase) == 32, "SenderCase must have no padding");

class SenderConservation : public ::testing::TestWithParam<SenderCase> {};

TEST_P(SenderConservation, EveryPacketIsAccounted) {
  const SenderCase& param = GetParam();
  sim::Simulator sim;
  util::Rng rng(param.seed);
  stream::SegmentFactory factory;
  std::uint64_t delivered = 0, lost = 0;
  core::SupernodeSender sender(
      sim, param.uplink,
      param.deadline_discipline ? core::SupernodeSender::Discipline::kDeadline
                                : core::SupernodeSender::Discipline::kFifo,
      core::DeadlineSchedulerConfig{},
      [](NodeId, util::Rng& r) { return 5.0 + r.uniform() * 10.0; },
      [&](const core::PacketDelivery& d) { d.lost ? ++lost : ++delivered; },
      rng.fork("prop"));
  if (param.loss_rate > 0.0) {
    sender.set_loss_model(
        [&](NodeId, std::uint64_t) { return param.loss_rate; });
  }

  // Random segment stream: sizes, games and timings all vary.
  util::Rng workload = rng.fork("workload");
  TimeMs now = 0.0;
  for (int i = 0; i < 120; ++i) {
    now += workload.uniform(1.0, 40.0);
    const auto game = static_cast<game::GameId>(workload.uniform_int(0, 4));
    const int level = static_cast<int>(workload.uniform_int(1, 5));
    sim.schedule_at(now, [&, game, level] {
      sim::Simulator& s = sim;
      auto seg = factory.make(static_cast<NodeId>(workload.uniform_int(0, 7)),
                              game, level, 33.3, s.now());
      sender.submit(seg);
    });
  }
  sim.run_all();

  EXPECT_EQ(sender.packets_submitted(),
            delivered + lost + sender.packets_dropped());
  EXPECT_EQ(sender.packets_lost(), lost);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SenderConservation,
    ::testing::Values(
        // Name bytes 8-15 (flag, name_bytes, name_tail) in the comments.
        SenderCase{1, false, {}, 0, 0.0, 20'000.0},  // 00-00 00-00 00-00 00-00
        SenderCase{2, true, {}, 0, 0.0, 20'000.0},  // 01-00 00-00 00-00 00-00
        SenderCase{3, false, {0x69, 0x73, 0x74}, 0, 0.05,
                   20'000.0},  // 00-69 73-74 00-00 00-00
        SenderCase{4, true, {}, 0, 0.05, 20'000.0},  // 01-00 00-00 00-00 00-00
        // Heavy overload.
        SenderCase{5, true, {0x00, 0x04, 0x00}, 0, 0.0,
                   2'000.0},  // 01-00 04-00 00-00 00-00
        SenderCase{6, true, {}, 0, 0.10, 2'000.0},  // 01-00 00-00 00-00 00-00
        SenderCase{7, false, {0x00, 0x04, 0x00}, 0, 0.10,
                   2'000.0},  // 00-00 04-00 00-00 00-00
        // No contention.
        SenderCase{8, true, {}, 0, 0.0, 200'000.0}  // 01-00 00-00 00-00 00-00
        ));

// ---------------------------------------------------------------------------
// DeadlineScheduler: per-segment drops never exceed the loss-tolerance
// budget, for random overloaded streams.
class SchedulerBudget : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerBudget, DropsStayWithinToleranceBudgets) {
  util::Rng rng(GetParam());
  core::DeadlineScheduler sched(1'000.0, core::DeadlineSchedulerConfig{});
  stream::SegmentFactory factory;
  std::map<std::uint64_t, int> drops_per_segment;
  std::map<std::uint64_t, std::pair<int, double>> segment_info;  // packets, tol
  sched.set_drop_observer([&](const stream::VideoSegment& seg, int) {
    ++drops_per_segment[seg.id];
  });

  TimeMs now = 0.0;
  for (int i = 0; i < 60; ++i) {
    now += rng.uniform(0.0, 20.0);
    const auto game = static_cast<game::GameId>(rng.uniform_int(0, 4));
    const int level = static_cast<int>(rng.uniform_int(1, 5));
    auto seg = factory.make(static_cast<NodeId>(i % 5), game, level, 33.3, now);
    segment_info[seg.id] = {stream::packet_count(seg.size_kbit),
                            seg.loss_tolerance};
    sched.enqueue(seg, now);
    // Interleave some transmission progress.
    for (int p = 0; p < 2; ++p) (void)sched.pop_packet(now);
  }
  for (const auto& [id, dropped] : drops_per_segment) {
    const auto& [packets, tolerance] = segment_info.at(id);
    EXPECT_LE(dropped, static_cast<int>(tolerance * packets))
        << "segment " << id;
  }
  EXPECT_FALSE(drops_per_segment.empty()) << "workload never overloaded";
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerBudget,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u));

// ---------------------------------------------------------------------------
// RateAdaptationController: the level never leaves [1, target] no matter
// what estimate stream it sees.
struct AdaptationCase {
  std::uint64_t seed;
  game::GameId game;
  std::uint32_t name_bytes;
};
static_assert(sizeof(AdaptationCase) == 16,
              "AdaptationCase must have no padding");

class AdaptationBounds : public ::testing::TestWithParam<AdaptationCase> {};

TEST_P(AdaptationBounds, LevelAlwaysWithinBounds) {
  const auto& param = GetParam();
  util::Rng rng(param.seed);
  const auto& profile = game::game_by_id(param.game);
  core::RateAdaptationConfig config;
  config.consecutive_estimates = static_cast<int>(rng.uniform_int(1, 10));
  core::RateAdaptationController ctrl(profile, config);
  for (int i = 0; i < 2'000; ++i) {
    // Adversarial mixture: calm, starved and flooded regimes.
    const double r = rng.bernoulli(0.3)   ? rng.uniform(0.0, 0.4)
                     : rng.bernoulli(0.5) ? rng.uniform(0.5, 1.5)
                                          : rng.uniform(2.0, 10.0);
    ctrl.observe(r);
    EXPECT_GE(ctrl.level(), game::kMinQualityLevel);
    EXPECT_LE(ctrl.level(), profile.target_quality_level);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AdaptationBounds,
    // Name bytes 12-15 (name_bytes, little-endian) in the comments.
    ::testing::Values(AdaptationCase{1, 0, 0xD0},   // D0-00 00-00
                      AdaptationCase{2, 1, ~0u},    // FF-FF FF-FF
                      AdaptationCase{3, 2, 0xD0},   // D0-00 00-00
                      AdaptationCase{4, 3, ~0u},    // FF-FF FF-FF
                      AdaptationCase{5, 4, 0x00},   // 00-00 00-00
                      AdaptationCase{6, 4, 0x90}));  // 90-00 00-00

// ---------------------------------------------------------------------------
// RateAdaptationController Eq-7 estimator: the estimate stays in [0, 4 tau].
class EstimatorBounds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EstimatorBounds, EstimateClamped) {
  util::Rng rng(GetParam());
  core::RateAdaptationController ctrl(game::game_by_id(4),
                                      core::RateAdaptationConfig{});
  const Kbit tau = 60.0;
  for (int i = 0; i < 1'000; ++i) {
    ctrl.observe_rates(rng.uniform(50.0, 500.0), rng.uniform(0.0, 5'000.0),
                       rng.uniform(100.0, 2'000.0), tau);
    EXPECT_GE(ctrl.estimated_buffer_kbit(), 0.0);
    EXPECT_LE(ctrl.estimated_buffer_kbit(), 4.0 * tau);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EstimatorBounds,
                         ::testing::Values(3u, 13u, 23u, 33u));

// ---------------------------------------------------------------------------
// QueuedSender: schedules are causal and the link never rewinds.
class QueuedSenderCausality : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QueuedSenderCausality, SchedulesAreMonotone) {
  util::Rng rng(GetParam());
  stream::QueuedSender sender(rng.uniform(500.0, 50'000.0));
  TimeMs now = 0.0;
  TimeMs last_end = 0.0;
  for (int i = 0; i < 500; ++i) {
    now += rng.uniform(0.0, 30.0);
    const Kbps cap = rng.bernoulli(0.5) ? rng.uniform(100.0, 10'000.0) : 0.0;
    const auto sched = sender.enqueue(now, rng.uniform(0.0, 400.0), cap);
    EXPECT_GE(sched.start, sched.enqueued);
    EXPECT_GE(sched.end, sched.start);
    EXPECT_GE(sched.start, last_end);  // FIFO: no overlap on the link
    last_end = sched.end;
    EXPECT_GE(sender.busy_until(now), now);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueuedSenderCausality,
                         ::testing::Values(7u, 17u, 27u, 37u));

}  // namespace
}  // namespace cloudfog
