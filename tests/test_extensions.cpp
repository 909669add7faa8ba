// Tests for the paper's "margin" features: the Willard-style randomized
// election (Section 2's O(log log n) citation) and the anonymous / unknown-n
// randomized partition (Section 4 remark + Section 7.4).
#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "channel/randomized_election.hpp"
#include "core/anonymous.hpp"
#include "core/partition.hpp"
#include "graph/generators.hpp"
#include "graph/validation.hpp"
#include "sim/channel.hpp"
#include "support/math.hpp"
#include "support/rng.hpp"

namespace mmn {
namespace {

struct ElectionRun {
  std::uint64_t slots = 0;
  std::uint64_t winner_id = 0;
};

ElectionRun run_election(std::size_t k, std::uint64_t seed) {
  Rng root(seed);
  std::vector<Rng> rngs;
  for (std::size_t s = 0; s < k; ++s) rngs.push_back(root.fork(s));
  RandomizedElection listener;

  sim::Channel channel;
  Metrics metrics;
  ElectionRun run;
  sim::SlotObservation obs;
  while (!listener.done()) {
    for (std::size_t s = 0; s < k; ++s) {
      if (listener.station_transmits(rngs[s])) {
        channel.write(static_cast<NodeId>(s),
                      sim::Packet(1, {static_cast<sim::Word>(s)}));
      }
    }
    obs = channel.resolve(metrics);
    listener.observe(obs);
    ++run.slots;
    if (run.slots > 100000) {
      ADD_FAILURE() << "election not converging";
      return run;
    }
  }
  // The election ends on its first success, whose writer is the winner.
  EXPECT_TRUE(obs.success());
  run.winner_id = static_cast<std::uint64_t>(listener.winner_payload()[0]);
  EXPECT_EQ(run.winner_id, obs.writer);
  return run;
}

TEST(RandomizedElection, TheWinnerIsTheSuccessfulCandidate) {
  for (std::size_t k : {1u, 2u, 7u, 50u, 500u, 4000u}) {
    for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
      const ElectionRun run = run_election(k, seed * 77 + k);
      EXPECT_LT(run.winner_id, k) << "k=" << k << " seed=" << seed;
    }
  }
}

TEST(RandomizedElection, SlotCountGrowsDoublyLogarithmically) {
  // Expected O(log log n): averages should stay tiny and nearly flat in n.
  for (std::size_t k : {16u, 256u, 4096u}) {
    double slots = 0;
    const int trials = 20;
    for (int t = 0; t < trials; ++t) {
      slots += static_cast<double>(run_election(k, 1000 + t).slots);
    }
    EXPECT_LT(slots / trials, 20.0) << "k=" << k;
  }
}

TEST(RandomizedElection, AccessorsRequireCompletion) {
  RandomizedElection e;
  EXPECT_THROW(e.winner_payload(), std::invalid_argument);
  sim::SlotObservation success;
  success.state = sim::SlotState::kSuccess;
  e.observe(success);
  Rng rng(1);
  EXPECT_THROW(e.station_transmits(rng), std::invalid_argument);
}

// --- anonymous partition ----------------------------------------------------

struct AnonRun {
  ForestStats stats;
  std::vector<NodeId> fragment;
  Forest forest;
  std::uint64_t estimate = 0;
};

AnonRun run_anonymous(const Graph& g, std::uint64_t seed) {
  sim::Engine engine(g, [](const sim::LocalView& v) {
    return std::make_unique<AnonymousPartitionProcess>(v);
  }, seed);
  engine.run(8'000'000);
  AnonRun run;
  const FragmentAccessor acc = direct_fragment_accessor();
  run.forest = collect_forest(engine, acc);
  run.fragment = collect_fragments(engine, acc);
  run.stats = analyze_forest(g, run.forest, "anonymous partition");
  run.estimate =
      static_cast<const AnonymousPartitionProcess&>(engine.process(0))
          .size_estimate();
  return run;
}

TEST(AnonymousPartition, SpanningForestWithEstimateScaledRadius) {
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    const Graph g = random_connected(300, 450, seed);
    const AnonRun run = run_anonymous(g, seed * 13);
    EXPECT_GE(run.estimate, 1u);
    // The radius guarantee scales with the estimate the nodes agreed on.
    EXPECT_LE(run.stats.max_radius, 4 * isqrt_ceil(run.estimate))
        << "seed " << seed << " estimate " << run.estimate;
  }
}

TEST(AnonymousPartition, FragmentLabelsConsistentWithinTrees) {
  const Graph g = grid(12, 12, 3);
  const AnonRun run = run_anonymous(g, 5);
  // All nodes of one tree must report the identical (opaque) label, and
  // distinct trees must get distinct labels (whp for 63-bit random ids).
  std::map<NodeId, std::set<NodeId>> labels_by_root;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    labels_by_root[forest_root_of(run.forest, v)].insert(run.fragment[v]);
  }
  std::set<NodeId> all_labels;
  for (const auto& [root, labels] : labels_by_root) {
    EXPECT_EQ(labels.size(), 1u) << "tree of root " << root;
    all_labels.insert(*labels.begin());
  }
  EXPECT_EQ(all_labels.size(), labels_by_root.size());
}

TEST(AnonymousPartition, WorksOnTinyNetworks) {
  for (NodeId n : {1u, 2u, 3u, 5u}) {
    const Graph g = n == 1 ? Graph(1, {}) : path(n, 1);
    const AnonRun run = run_anonymous(g, 9 + n);
    EXPECT_GE(run.stats.num_trees, 1u);
  }
}

TEST(AnonymousPartition, DeterministicPerSeed) {
  const Graph g = random_connected(100, 140, 2);
  const AnonRun a = run_anonymous(g, 6);
  const AnonRun b = run_anonymous(g, 6);
  EXPECT_EQ(a.forest.parent, b.forest.parent);
  EXPECT_EQ(a.estimate, b.estimate);
}

}  // namespace
}  // namespace mmn
