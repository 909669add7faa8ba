// Tests for the randomized partitioning algorithm (Section 4) and its Las
// Vegas wrapper.
//
// Asserted guarantees: spanning rooted forest, radius <= 4*sqrt(n) (always,
// not just in expectation), O(sqrt(n)) trees on average (Theorem 1, checked
// statistically over seeds), and the Las Vegas certificate of at most
// 2*sqrt(n) trees.
#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "core/partition.hpp"
#include "core/partition_rand.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/validation.hpp"
#include "sim/scheduler.hpp"
#include "support/math.hpp"

namespace mmn {
namespace {

struct RunResult {
  Forest forest;
  std::vector<NodeId> fragment;
  ForestStats stats;
  Metrics metrics;
  int attempts = 1;
  bool accepted = false;  ///< every node finished (Las Vegas: certified)
};

RunResult run_rand(const Graph& g, std::uint64_t seed, bool las_vegas = false,
                   unsigned threads = 1, PartitionRandConfig config = {}) {
  sim::Engine engine(g, [&](const sim::LocalView& v) -> std::unique_ptr<sim::Process> {
    if (las_vegas) {
      return std::make_unique<LasVegasPartitionProcess>(v, config);
    }
    return std::make_unique<PartitionRandProcess>(v, config);
  }, seed, sim::make_scheduler(threads));
  RunResult r;
  r.metrics = engine.run(4'000'000);
  r.accepted = engine.status() == sim::RunStatus::kCompleted;
  const FragmentAccessor acc = direct_fragment_accessor();
  r.forest = collect_forest(engine, acc);
  r.fragment = collect_fragments(engine, acc);
  r.stats = analyze_forest(g, r.forest, "partition_rand");
  if (las_vegas) {
    r.attempts =
        static_cast<const LasVegasPartitionProcess&>(engine.process(0))
            .attempts();
  }
  return r;
}

struct TopoCase {
  const char* name;
  Graph (*make)(std::uint64_t seed);
};

Graph t_path(std::uint64_t s) { return path(40, s); }
Graph t_ring(std::uint64_t s) { return ring(50, s); }
Graph t_grid(std::uint64_t s) { return grid(8, 8, s); }
Graph t_sparse(std::uint64_t s) { return random_connected(100, 80, s); }
Graph t_dense(std::uint64_t s) { return random_connected(60, 600, s); }
Graph t_tree(std::uint64_t s) { return random_tree(90, s); }
Graph t_ray(std::uint64_t s) { return ray_graph(5, 12, s); }
Graph t_big(std::uint64_t s) { return random_connected(400, 800, s); }

class PartitionRandTest : public ::testing::TestWithParam<TopoCase> {};

TEST_P(PartitionRandTest, SpanningForestWithRadiusBound) {
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const Graph g = GetParam().make(seed);
    const NodeId n = g.num_nodes();
    const RunResult r = run_rand(g, seed * 31 + 1);
    // Spanning and rooted is checked inside analyze_forest; radius is the
    // algorithm's hard guarantee.
    EXPECT_LE(r.stats.max_radius, 4 * isqrt_ceil(n)) << "seed " << seed;
    for (NodeId v = 0; v < n; ++v) {
      EXPECT_EQ(r.fragment[v], forest_root_of(r.forest, v));
    }
  }
}

TEST_P(PartitionRandTest, TreeEdgesAreGraphEdges) {
  const Graph g = GetParam().make(5);
  const RunResult r = run_rand(g, 17);
  // analyze_forest verifies structure; additionally every non-root node has
  // a parent edge toward a strictly closer-to-root node (BFS layering).
  EXPECT_GE(r.stats.num_trees, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, PartitionRandTest,
    ::testing::Values(TopoCase{"path40", t_path}, TopoCase{"ring50", t_ring},
                      TopoCase{"grid8x8", t_grid},
                      TopoCase{"sparse100", t_sparse},
                      TopoCase{"dense60", t_dense}, TopoCase{"tree90", t_tree},
                      TopoCase{"ray5x12", t_ray}, TopoCase{"big400", t_big}),
    [](const ::testing::TestParamInfo<TopoCase>& param_info) {
      return param_info.param.name;
    });

TEST(PartitionRand, ExpectedTreesIsOrderSqrtN) {
  // Theorem 1: E[#trees] = O(sqrt(n)).  Average over seeds and check a
  // generous constant.
  for (NodeId n : {64u, 256u, 1024u}) {
    const Graph g = random_connected(n, 2 * n, 99);
    double total = 0;
    const int trials = 10;
    for (int t = 0; t < trials; ++t) {
      total += static_cast<double>(run_rand(g, 1000 + t).stats.num_trees);
    }
    const double avg = total / trials;
    EXPECT_LE(avg, 6.0 * std::sqrt(static_cast<double>(n))) << "n=" << n;
  }
}

TEST(PartitionRand, SingleNode) {
  const Graph g(1, {});
  const RunResult r = run_rand(g, 3);
  EXPECT_EQ(r.stats.num_trees, 1u);
}

TEST(PartitionRand, DeterministicPerSeed) {
  const Graph g = random_connected(120, 150, 8);
  const RunResult a = run_rand(g, 42);
  const RunResult b = run_rand(g, 42);
  EXPECT_EQ(a.forest.parent, b.forest.parent);
  EXPECT_EQ(a.metrics.rounds, b.metrics.rounds);
  const RunResult c = run_rand(g, 43);
  // A different seed almost surely yields a different center set.
  EXPECT_NE(a.forest.parent, c.forest.parent);
}

TEST(PartitionRand, LasVegasCertifiesTreeCount) {
  for (std::uint64_t seed : {1ULL, 5ULL, 9ULL}) {
    const Graph g = random_connected(200, 300, seed);
    const RunResult r = run_rand(g, seed, /*las_vegas=*/true);
    EXPECT_LE(r.stats.num_trees, 2 * isqrt_ceil(200)) << "seed " << seed;
    EXPECT_LE(r.stats.max_radius, 4 * isqrt_ceil(200));
    EXPECT_GE(r.attempts, 1);
    EXPECT_LE(r.attempts, 4) << "restart probability should be small";
  }
}

TEST(PartitionRand, LasVegasIdenticalAcrossThreads) {
  // Shard workers take the verifier's public fold concurrently in the round
  // of the first decision; the run must not depend on the thread count.
  // The Metrics pins hold the fold to its first slot: the one the first
  // decision writes into, not the partition's last.  The tight ring
  // (growth radius and freeze threshold of one sqrt(n)) grows too many
  // trees once, so the restart path runs too.
  struct Case {
    Graph g;
    std::uint64_t seed;
    PartitionRandConfig config;
    int attempts;
    Metrics metrics;
  };
  const Case cases[] = {
      {random_connected(200, 300, 1), 1, {}, 1,
       {.rounds = 103, .p2p_messages = 3130, .slots_idle = 31,
        .slots_success = 18, .slots_collision = 54}},
      {random_connected(200, 300, 5), 5, {}, 1,
       {.rounds = 109, .p2p_messages = 3136, .slots_idle = 34,
        .slots_success = 12, .slots_collision = 63}},
      {ring(100, 1), 1, {.radius_factor = 1, .freeze_factor = 1}, 2,
       {.rounds = 367, .p2p_messages = 1680, .slots_idle = 57,
        .slots_success = 43, .slots_collision = 267}}};
  for (const Case& c : cases) {
    const RunResult serial = run_rand(c.g, c.seed, true, 1, c.config);
    const RunResult threaded = run_rand(c.g, c.seed, true, 4, c.config);
    EXPECT_TRUE(serial.accepted) << "seed " << c.seed;
    EXPECT_EQ(serial.attempts, c.attempts) << "seed " << c.seed;
    EXPECT_TRUE(serial.metrics == c.metrics)
        << "seed " << c.seed << ": " << serial.metrics.to_string();
    EXPECT_EQ(threaded.accepted, serial.accepted) << "seed " << c.seed;
    EXPECT_EQ(threaded.attempts, serial.attempts) << "seed " << c.seed;
    EXPECT_EQ(threaded.forest.parent, serial.forest.parent)
        << "seed " << c.seed;
    EXPECT_TRUE(threaded.metrics == serial.metrics)
        << "seed " << c.seed << "\nserial:   " << serial.metrics.to_string()
        << "\nthreaded: " << threaded.metrics.to_string();
  }
}

TEST(PartitionRand, RejectsBadConfig) {
  const Graph g = ring(8, 1);
  PartitionRandConfig bad;
  bad.radius_factor = 1;
  bad.freeze_factor = 2;
  EXPECT_THROW(sim::Engine(g,
                           [&](const sim::LocalView& v) {
                             return std::make_unique<PartitionRandProcess>(v,
                                                                           bad);
                           },
                           1),
               std::invalid_argument);
}

TEST(PartitionRand, TimeScalesAsSqrtN) {
  const Graph g = random_connected(400, 800, 2);
  const RunResult r = run_rand(g, 7);
  // O(sqrt(n) log* n) with the barrier constant; generous envelope.
  const double bound =
      400.0 * static_cast<double>(isqrt(400) + 1) * (log_star(400) + 1);
  EXPECT_LE(static_cast<double>(r.metrics.rounds), bound);
}

}  // namespace
}  // namespace mmn
