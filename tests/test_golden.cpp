// Golden pins: the contract refactors keep.
//
// Every registered scenario's digest and full Metrics at its first sweep
// size (default seed, synchronous engine, serial), the same at the second
// sweep size for every scenario that runs the Section 3 deterministic
// partition (PartitionDetProcess: partition/det/*, mst/random, the
// deterministic global function, the size checks and their recovery
// variants), and the point-to-point GHS MST baseline's rounds, messages and
// MST edge set on three graph families.  A change that moves any value here
// changes observable behaviour; a pure refactor must leave the table
// untouched.
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "baselines/p2p_mst.hpp"
#include "graph/generators.hpp"
#include "scenario/registry.hpp"

namespace mmn::scenario {
namespace {

struct ScenarioPin {
  std::string_view name;
  NodeId n;
  std::uint64_t digest;
  Metrics metrics;
};

// {rounds, p2p_messages, slots_idle, slots_success, slots_collision,
//  channel_ticks}
const ScenarioPin kScenarioPins[] = {
    {"partition/det/random", 64, 0xb52751f4c2bbf92fULL,
     {272, 3341, 58, 20, 194, 0}},
    {"partition/det/random", 256, 0x51e462b76127dc0aULL,
     {523, 18454, 77, 59, 387, 0}},
    {"partition/rand/random", 64, 0x41c4e295b4da8683ULL,
     {33, 1112, 10, 0, 23, 0}},
    {"partition/anon/random", 64, 0xc6c0e7f56e0c7ce4ULL,
     {39, 1094, 15, 3, 21, 0}},
    {"mst/random", 64, 0x6db48771e18a3ed9ULL, {296, 3843, 63, 30, 203, 0}},
    {"mst/random", 256, 0x45de111dc2d27261ULL, {588, 20732, 84, 83, 421, 0}},
    {"global/min/det/random", 64, 0xea7805377dec9065ULL,
     {292, 3461, 63, 26, 203, 0}},
    {"global/min/det/random", 256, 0xf579dcf3347b5825ULL,
     {558, 18950, 83, 67, 408, 0}},
    {"global/min/rand/ring", 256, 0xf579dcf3347b5825ULL,
     {308, 3424, 42, 29, 237, 0}},
    {"global/sum/bcast/complete", 64, 0x0b61602d3c827825ULL,
     {65, 0, 1, 64, 0, 0}},
    {"global/max/tdma/ring", 64, 0x718d46bfbf69e065ULL, {65, 0, 1, 64, 0, 0}},
    {"global/min/p2p/grid", 64, 0xea7805377dec9065ULL,
     {198, 1631, 198, 0, 0, 0}},
    {"global/sum/p2p/hypercube", 64, 0x0b61602d3c827825ULL,
     {27, 1791, 27, 0, 0, 0}},
    {"global/max/cape/ring", 64, 0x785329db51a3f265ULL, {128, 0, 1, 64, 63, 0}},
    {"global/sum/tdma/grid", 64, 0x0b61602d3c827825ULL, {65, 0, 1, 64, 0, 0}},
    {"size/unslotted/clique", 48, 0x574c01362e41b6e5ULL,
     {119, 854, 24, 31, 64, 4097}},
    {"size/unslotted/clique", 96, 0x2ed663bd301bfaa5ULL,
     {151, 1748, 26, 44, 81, 5379}},
    {"partition/det/unslotted/random", 64, 0xb52751f4c2bbf92fULL,
     {272, 3341, 58, 20, 194, 9473}},
    {"partition/det/unslotted/random", 256, 0x51e462b76127dc0aULL,
     {523, 18454, 77, 59, 387, 19521}},
    {"global/min/p2p/unslotted/grid", 64, 0x5645c00d13752e65ULL,
     {198, 1631, 198, 0, 0, 792}},
    {"size/det/random", 64, 0x7f337c948a478825ULL, {129, 1157, 25, 34, 70, 0}},
    {"size/det/random", 256, 0x83758850e7fbb725ULL,
     {387, 9306, 54, 107, 226, 0}},
    {"global/min/det/ray", 64, 0xea7805377dec9065ULL,
     {371, 3704, 65, 9, 297, 0}},
    {"global/min/det/ray", 256, 0xf579dcf3347b5825ULL,
     {798, 20214, 85, 29, 684, 0}},
    {"partition/det/ray", 64, 0x6439037d2ac7fff7ULL,
     {347, 3582, 58, 5, 284, 0}},
    {"partition/det/ray", 256, 0x4fa026d8becad5a5ULL,
     {758, 19714, 77, 22, 659, 0}},
    {"global/sum/bcast/iclique", 64, 0x0b61602d3c827825ULL,
     {65, 0, 1, 64, 0, 0}},
    {"size/unslotted/iclique", 48, 0x574c01362e41b6e5ULL,
     {83, 1084, 21, 25, 37, 2661}},
    {"size/unslotted/iclique", 96, 0x2ed663bd301bfaa5ULL,
     {87, 2188, 21, 26, 40, 2855}},
    {"load/poisson/ffa/ring", 64, 0x15d2eff11aaef517ULL,
     {1201, 6, 9, 3, 1189, 0}},
    {"load/poisson/pb/ring", 64, 0xade5a067520dc1dbULL,
     {1201, 708, 574, 354, 273, 0}},
    {"load/poisson/resv/ring", 64, 0x42de143cbc806756ULL,
     {1870, 1938, 330, 970, 570, 0}},
    {"load/onoff/resv/grid", 64, 0x983ff995b8218683ULL,
     {1600, 2926, 279, 835, 486, 0}},
    {"load/poisson/pb/iclique", 64, 0x3e43efbb04bac5e6ULL,
     {3392, 69552, 871, 1105, 1416, 0}},
    {"load/poisson/tdma/ring", 64, 0x5bc01ebe18269112ULL,
     {1356, 1202, 754, 602, 0, 0}},
    {"load/poisson/cape/ring", 64, 0x581cf705d2d7085fULL,
     {1204, 946, 272, 474, 458, 0}},
    {"fault/partition/det/random", 64, 0x3a8ecbb1f87a7cd9ULL,
     {271, 3320, 58, 20, 193, 0}},
    {"fault/partition/det/random", 128, 0x2caf54486be39e6aULL,
     {522, 9089, 77, 112, 333, 0}},
    {"fault/mst/random", 64, 0x0c179d95bd036db7ULL,
     {295, 3814, 63, 30, 202, 0}},
    {"fault/mst/random", 128, 0x9b6bd504ae0700abULL,
     {554, 10095, 85, 120, 349, 0}},
    {"fault/load/churn/ring", 64, 0xb19f0e9bfb54197eULL,
     {1465, 1455, 276, 735, 454, 0}},
};

const ScenarioPin* find_pin(std::string_view name, NodeId n) {
  for (const ScenarioPin& pin : kScenarioPins) {
    if (pin.name == name && pin.n == n) return &pin;
  }
  return nullptr;
}

TEST(Golden, EveryScenarioIsPinnedAtItsFirstSweepSize) {
  register_builtin();
  for (const Scenario& s : Registry::instance().all()) {
    EXPECT_NE(find_pin(s.name, s.sweep_n[0]), nullptr) << s.name;
  }
}

TEST(Golden, ScenarioDigestsAndMetrics) {
  register_builtin();
  for (const ScenarioPin& pin : kScenarioPins) {
    const Scenario* s = Registry::instance().find(pin.name);
    ASSERT_NE(s, nullptr) << pin.name;
    const RunResult r = run(*s, pin.n, s->default_seed);
    EXPECT_TRUE(r.completed) << pin.name << " n=" << pin.n;
    EXPECT_EQ(r.digest, pin.digest) << pin.name << " n=" << pin.n;
    EXPECT_EQ(r.metrics, pin.metrics)
        << pin.name << " n=" << pin.n << ": " << r.metrics.to_string();
  }
}

struct P2pMstPin {
  std::string_view family;
  std::uint64_t rounds;
  std::uint64_t p2p_messages;
  std::uint64_t edge_digest;  ///< digest_mix fold of the sorted MST edges
};

const P2pMstPin kP2pMstPins[] = {
    {"random", 5641, 1491, 0xb86f14e582f53b0dULL},
    {"grid", 5281, 1152, 0x4f43852683fc5f94ULL},
    {"ring", 4561, 859, 0x169157cf68bc0728ULL},
};

Graph p2p_graph(std::string_view family) {
  if (family == "random") return random_connected(60, 120, 5);
  if (family == "grid") return grid(8, 7, 5);
  return ring(48, 5);
}

TEST(Golden, P2pMstBaseline) {
  for (const P2pMstPin& pin : kP2pMstPins) {
    const Graph g = p2p_graph(pin.family);
    sim::Engine engine(g, [](const sim::LocalView& v) {
      return std::make_unique<P2pMstProcess>(v);
    }, 7);
    const Metrics m = engine.run(64'000'000);
    std::set<EdgeId> edges;
    for (NodeId v = 0; v < engine.num_nodes(); ++v) {
      for (EdgeId e :
           static_cast<const P2pMstProcess&>(engine.process(v)).mst_edges()) {
        edges.insert(e);
      }
    }
    std::uint64_t h = kDigestSeed;
    for (EdgeId e : edges) h = digest_mix(h, e);
    EXPECT_EQ(m.rounds, pin.rounds) << pin.family;
    EXPECT_EQ(m.p2p_messages, pin.p2p_messages) << pin.family;
    EXPECT_EQ(h, pin.edge_digest) << pin.family;
  }
}

}  // namespace
}  // namespace mmn::scenario
