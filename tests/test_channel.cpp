// Tests for the channel-protocol toolbox: Capetanakis tree resolution,
// deterministic election, randomized (pseudo-Bayesian) scheduling and the
// Greenberg–Ladner size estimator.
//
// Protocols are driven against a real Channel: each slot, every station
// decides, the slot resolves, and every station observes the same outcome.
// The resolvers and the election are listeners: a station decides through
// the one listener copy (Capetanakis probe membership, the election's
// leader prefix, or the pseudo-Bayesian draw from the station's own RNG)
// and keeps only its pending bit, exactly as the engine's public folds
// drive them inside processes.
#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "channel/capetanakis.hpp"
#include "channel/election.hpp"
#include "channel/pseudo_bayesian.hpp"
#include "channel/size_estimator.hpp"
#include "sim/channel.hpp"
#include "support/math.hpp"
#include "support/rng.hpp"

namespace mmn {
namespace {

using sim::Channel;
using sim::Packet;
using sim::SlotObservation;

/// Picks k distinct station ids out of [0, n).
std::vector<std::uint64_t> pick_ids(std::uint64_t n, std::size_t k,
                                    std::uint64_t seed) {
  Rng rng(seed);
  std::set<std::uint64_t> ids;
  while (ids.size() < k) ids.insert(rng.next_below(n));
  return {ids.begin(), ids.end()};
}

// --- Capetanakis ---------------------------------------------------------

struct CapetanakisRun {
  std::uint64_t slots = 0;
  std::vector<std::uint64_t> schedule;       // ids in success order
  std::vector<std::uint64_t> listener_view;  // as decoded by the listener
  std::uint64_t listener_done_slot = 0;
};

CapetanakisRun run_capetanakis(std::uint64_t n,
                               const std::vector<std::uint64_t>& ids,
                               bool massey_skip = false) {
  CapetanakisResolver listener(n, massey_skip);
  std::vector<bool> pending(ids.size(), true);

  Channel channel;
  Metrics metrics;
  CapetanakisRun run;
  while (!listener.done()) {
    for (std::size_t s = 0; s < ids.size(); ++s) {
      if (pending[s] && listener.station_transmits(ids[s])) {
        channel.write(static_cast<NodeId>(ids[s]),
                      Packet(1, {static_cast<sim::Word>(ids[s])}));
      }
    }
    const SlotObservation obs = channel.resolve(metrics);
    const std::uint64_t before = listener.success_count();
    listener.observe(obs);
    if (obs.success()) {
      run.schedule.push_back(obs.payload[0]);
      for (std::size_t s = 0; s < ids.size(); ++s) {
        if (obs.writer == static_cast<NodeId>(ids[s])) pending[s] = false;
      }
    }
    if (listener.success_count() != before) {
      run.listener_view.push_back(obs.payload[0]);
    }
    ++run.slots;
  }
  run.listener_done_slot = run.slots;
  // Every station went through by the time the listener is done.
  for (std::size_t s = 0; s < ids.size(); ++s) {
    EXPECT_FALSE(pending[s]) << "id " << ids[s];
  }
  return run;
}

struct CapetanakisCase {
  std::uint64_t n;
  std::size_t k;
  std::uint64_t seed;
};

class CapetanakisTest : public ::testing::TestWithParam<CapetanakisCase> {};

TEST_P(CapetanakisTest, SchedulesEveryStationExactlyOnce) {
  const auto& c = GetParam();
  const auto ids = pick_ids(c.n, c.k, c.seed);
  const CapetanakisRun run = run_capetanakis(c.n, ids);
  // Depth-first traversal of the id space yields the ids in sorted order.
  EXPECT_EQ(run.schedule, ids);
  EXPECT_EQ(run.listener_view, ids);
}

TEST_P(CapetanakisTest, SlotCountWithinTheoreticalBound) {
  const auto& c = GetParam();
  const auto ids = pick_ids(c.n, c.k, c.seed);
  const CapetanakisRun run = run_capetanakis(c.n, ids);
  // O(k log(n/k) + k); the DFS tree has at most 2k(log2(n/k)+2)+1 probes.
  const double bound =
      2.0 * static_cast<double>(c.k) *
          (std::max(1.0, std::log2(static_cast<double>(c.n) / c.k)) + 2.0) +
      1.0;
  EXPECT_LE(static_cast<double>(run.slots), bound)
      << "n=" << c.n << " k=" << c.k;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CapetanakisTest,
    ::testing::Values(CapetanakisCase{16, 1, 1}, CapetanakisCase{16, 4, 2},
                      CapetanakisCase{16, 16, 3}, CapetanakisCase{64, 8, 4},
                      CapetanakisCase{256, 16, 5}, CapetanakisCase{256, 3, 6},
                      CapetanakisCase{1024, 32, 7},
                      CapetanakisCase{1024, 1, 8},
                      CapetanakisCase{4096, 64, 9},
                      CapetanakisCase{4096, 64, 10}));

TEST(Capetanakis, NoStationsResolvesInOneIdleSlot) {
  const CapetanakisRun run = run_capetanakis(64, {});
  EXPECT_EQ(run.slots, 1u);
  EXPECT_TRUE(run.schedule.empty());
}

TEST_P(CapetanakisTest, MasseySkipKeepsScheduleShrinksSlots) {
  const auto& c = GetParam();
  const auto ids = pick_ids(c.n, c.k, c.seed);
  const CapetanakisRun plain = run_capetanakis(c.n, ids, false);
  const CapetanakisRun skip = run_capetanakis(c.n, ids, true);
  EXPECT_EQ(skip.schedule, plain.schedule);
  EXPECT_LE(skip.slots, plain.slots);
}

TEST(Capetanakis, MasseySkipSavesOnSkewedPopulations) {
  // Both stations at the top of the id space: every split leaves the left
  // half idle and the right half doomed to collide — the skip removes all of
  // those doomed probes.
  const CapetanakisRun plain = run_capetanakis(1 << 16, {65534, 65535}, false);
  const CapetanakisRun skip = run_capetanakis(1 << 16, {65534, 65535}, true);
  EXPECT_EQ(plain.schedule, skip.schedule);
  EXPECT_LT(skip.slots, plain.slots);
}

TEST(Capetanakis, DuplicateStationIdsAbort) {
  // Two stations sharing id 1 collide forever inside a singleton interval;
  // the resolver detects the model violation and aborts.
  CapetanakisResolver resolver(2);
  sim::Channel channel;
  Metrics metrics;
  auto drive = [&] {
    for (int i = 0; i < 10; ++i) {
      for (NodeId writer : {0u, 1u}) {
        if (resolver.station_transmits(1)) {
          channel.write(writer, sim::Packet(1));
        }
      }
      resolver.observe(channel.resolve(metrics));
    }
  };
  EXPECT_DEATH(drive(), "duplicate station ids");
}

TEST(Capetanakis, ObserveAfterDoneThrows) {
  CapetanakisResolver r(4);
  SlotObservation idle;
  r.observe(idle);
  EXPECT_TRUE(r.done());
  EXPECT_THROW(r.observe(idle), std::invalid_argument);
}

// --- Election ------------------------------------------------------------

struct ElectionCase {
  std::uint64_t n;
  std::size_t k;
  std::uint64_t seed;
};

class ElectionTest : public ::testing::TestWithParam<ElectionCase> {};

TEST_P(ElectionTest, MaxIdWinsAndListenersDecodeIt) {
  const auto& c = GetParam();
  const auto ids = pick_ids(c.n, c.k, c.seed);
  const std::uint64_t expected = *std::max_element(ids.begin(), ids.end());
  ChannelElection listener(c.n);

  Channel channel;
  Metrics metrics;
  int slots = 0;
  while (!listener.done()) {
    for (std::uint64_t id : ids) {
      if (listener.station_transmits(id)) {
        channel.write(static_cast<NodeId>(id), Packet(1));
      }
    }
    // The leader stays in the race to the last bit: it transmits exactly
    // when its own bit is 1.
    const int bit = listener.total_rounds() - 1 - slots;
    EXPECT_EQ(listener.station_transmits(expected),
              ((expected >> bit) & 1) == 1);
    listener.observe(channel.resolve(metrics));
    ++slots;
  }
  EXPECT_EQ(listener.leader(), expected);
  EXPECT_TRUE(listener.any_candidate());
  EXPECT_EQ(slots, listener.total_rounds());
  EXPECT_EQ(slots, c.n == 1 ? 1 : ilog2_ceil(c.n));
  EXPECT_FALSE(listener.station_transmits(expected));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ElectionTest,
    ::testing::Values(ElectionCase{16, 1, 1}, ElectionCase{16, 16, 2},
                      ElectionCase{64, 5, 3}, ElectionCase{256, 100, 4},
                      ElectionCase{1024, 7, 5}, ElectionCase{1 << 16, 50, 6}));

TEST(Election, SixtyFourBitIdSpace) {
  // Probing bit 63 compares no prefix bits; the shift must not overflow.
  ChannelElection listener(std::uint64_t{1} << 63 | 1);
  EXPECT_EQ(listener.total_rounds(), 64);
  EXPECT_TRUE(listener.station_transmits(std::uint64_t{1} << 63));
  EXPECT_FALSE(listener.station_transmits(5));
}

TEST(Election, NoCandidates) {
  ChannelElection listener(16);
  Channel channel;
  Metrics metrics;
  while (!listener.done()) {
    listener.observe(channel.resolve(metrics));
  }
  EXPECT_FALSE(listener.any_candidate());
}

// --- Randomized scheduler -------------------------------------------------

struct SchedulerRun {
  std::uint64_t slots = 0;
  std::size_t scheduled = 0;
};

SchedulerRun run_randomized(std::size_t k, double initial_backlog,
                            std::uint64_t seed) {
  Rng root(seed);
  std::vector<Rng> rngs;
  for (std::size_t s = 0; s < k; ++s) rngs.push_back(root.fork(s));
  std::vector<bool> pending(k, true);
  RandomizedScheduler listener(initial_backlog);

  Channel channel;
  Metrics metrics;
  SchedulerRun run;
  while (!listener.done()) {
    for (std::size_t s = 0; s < k; ++s) {
      if (pending[s] && listener.station_transmits(rngs[s])) {
        channel.write(static_cast<NodeId>(s), Packet(1, {static_cast<sim::Word>(s)}));
      }
    }
    const SlotObservation obs = channel.resolve(metrics);
    const std::uint64_t before = listener.success_count();
    listener.observe(obs);
    // Only a counted success schedules its writer: a busy-tone slot's lone
    // writer stays pending.
    if (listener.success_count() != before) {
      EXPECT_TRUE(pending[obs.writer]) << "station " << obs.writer;
      pending[obs.writer] = false;
      ++run.scheduled;
    }
    ++run.slots;
    if (run.slots >= 1000u + 100u * k) {
      ADD_FAILURE() << "scheduler not converging after " << run.slots
                    << " slots";
      break;
    }
  }
  for (std::size_t s = 0; s < k; ++s) EXPECT_FALSE(pending[s]) << s;
  return run;
}

TEST(RandomizedScheduler, SchedulesAllStations) {
  for (std::size_t k : {1u, 2u, 5u, 20u, 64u}) {
    const SchedulerRun run = run_randomized(k, static_cast<double>(k), 42 + k);
    EXPECT_EQ(run.scheduled, k);
  }
}

TEST(RandomizedScheduler, ZeroStationsTerminatesImmediately) {
  const SchedulerRun run = run_randomized(0, 4.0, 1);
  EXPECT_EQ(run.scheduled, 0u);
  EXPECT_EQ(run.slots, 2u);  // one empty contention slot + one idle busy slot
}

TEST(RandomizedScheduler, ExpectedSlotsPerStationIsConstant) {
  // Averaged over seeds, the contention lane achieves ~1/e throughput, so
  // total slots (both lanes) stay below ~8 per station.
  const std::size_t k = 50;
  double total_slots = 0;
  const int trials = 20;
  for (int t = 0; t < trials; ++t) {
    total_slots += static_cast<double>(
        run_randomized(k, static_cast<double>(k), 1000 + t).slots);
  }
  const double per_station = total_slots / trials / static_cast<double>(k);
  EXPECT_LT(per_station, 8.0);
  EXPECT_GT(per_station, 2.0);  // both lanes cost at least 2k slots total
}

TEST(RandomizedScheduler, RobustToBadInitialEstimate) {
  // Pessimistic and optimistic initial backlogs must still converge.
  EXPECT_EQ(run_randomized(20, 1.0, 7).scheduled, 20u);
  EXPECT_EQ(run_randomized(3, 500.0, 8).scheduled, 3u);
}

// --- Size estimator --------------------------------------------------------

std::uint64_t run_estimate(std::uint64_t n, std::uint64_t seed) {
  Rng root(seed);
  std::vector<SizeEstimator> nodes(n);
  std::vector<Rng> rngs;
  for (std::uint64_t v = 0; v < n; ++v) rngs.push_back(root.fork(v));
  Channel channel;
  Metrics metrics;
  while (!nodes[0].done()) {
    for (std::uint64_t v = 0; v < n; ++v) {
      if (nodes[v].should_transmit(rngs[v])) {
        channel.write(static_cast<NodeId>(v), Packet(1));
      }
    }
    const SlotObservation obs = channel.resolve(metrics);
    for (auto& node : nodes) node.observe(obs);
  }
  // Every node agrees on the estimate.
  for (auto& node : nodes) {
    EXPECT_TRUE(node.done());
    EXPECT_EQ(node.estimate(), nodes[0].estimate());
  }
  return nodes[0].estimate();
}

TEST(SizeEstimator, MedianEstimateWithinConstantFactor) {
  for (std::uint64_t n : {16ULL, 64ULL, 256ULL, 1024ULL}) {
    std::vector<std::uint64_t> estimates;
    for (std::uint64_t seed = 0; seed < 31; ++seed) {
      estimates.push_back(run_estimate(n, seed));
    }
    std::sort(estimates.begin(), estimates.end());
    const std::uint64_t median = estimates[estimates.size() / 2];
    EXPECT_GE(median, n / 16) << "n=" << n;
    EXPECT_LE(median, n * 16) << "n=" << n;
  }
}

TEST(SizeEstimator, RoundsAreLogLog) {
  // The protocol runs ~log2(n) rounds of coin flips (the first idle round).
  std::uint64_t max_rounds = 0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Rng root(seed);
    std::vector<SizeEstimator> nodes(1024);
    std::vector<Rng> rngs;
    for (std::uint64_t v = 0; v < 1024; ++v) rngs.push_back(root.fork(v));
    Channel channel;
    Metrics metrics;
    while (!nodes[0].done()) {
      for (std::uint64_t v = 0; v < 1024; ++v) {
        if (nodes[v].should_transmit(rngs[v])) {
          channel.write(static_cast<NodeId>(v), Packet(1));
        }
      }
      const auto obs = channel.resolve(metrics);
      for (auto& node : nodes) node.observe(obs);
    }
    max_rounds = std::max(max_rounds, static_cast<std::uint64_t>(nodes[0].rounds()));
  }
  EXPECT_LE(max_rounds, 24u);  // ~log2(1024) + tail
}

TEST(SizeEstimator, AccessorsRequireCompletion) {
  SizeEstimator est;
  EXPECT_THROW(est.estimate(), std::invalid_argument);
  EXPECT_THROW(est.rounds(), std::invalid_argument);
}

}  // namespace
}  // namespace mmn
