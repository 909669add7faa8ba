// Tests for the scenario registry: registration invariants, lookup, and
// deterministic reruns.
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "scenario/registry.hpp"

namespace mmn::scenario {
namespace {

TEST(ScenarioRegistry, BuiltinTableHasAtLeastSixScenarios) {
  register_builtin();
  register_builtin();  // idempotent
  const auto& all = Registry::instance().all();
  EXPECT_GE(all.size(), 6u);
  for (const Scenario& s : all) {
    EXPECT_FALSE(s.name.empty());
    EXPECT_FALSE(s.sweep_n.empty()) << s.name;
    EXPECT_NE(s.make_factory, nullptr) << s.name;
    // Every default sweep size must be exactly admissible for the entry's
    // topology family — the registry never relies on silent rounding.
    for (NodeId n : s.sweep_n) {
      EXPECT_TRUE(topology_valid_n(s.topology, n)) << s.name << " n=" << n;
    }
  }
}

TEST(ScenarioRegistry, FindByName) {
  register_builtin();
  const Scenario* mst = Registry::instance().find("mst/random");
  ASSERT_NE(mst, nullptr);
  EXPECT_EQ(std::string(topology_name(mst->topology)), "random");
  EXPECT_EQ(Registry::instance().find("no/such/scenario"), nullptr);
}

TEST(ScenarioRegistry, DuplicateNameRejected) {
  register_builtin();
  Scenario dup = *Registry::instance().find("mst/random");
  EXPECT_THROW(Registry::instance().add(dup), std::invalid_argument);
}

TEST(ScenarioRegistry, RunsAreDeterministicPerSeed) {
  register_builtin();
  const Scenario* s = Registry::instance().find("global/min/rand/ring");
  ASSERT_NE(s, nullptr);
  const RunResult a = run(*s, 64, 11);
  const RunResult b = run(*s, 64, 11);
  EXPECT_TRUE(a.metrics == b.metrics);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.realized_n, 64u);
  const RunResult c = run(*s, 64, 12);
  // A different seed changes the randomized schedule (metrics), never the
  // computed global value for the same inputs.
  EXPECT_EQ(a.digest, c.digest);
}

TEST(ScenarioRegistry, GridFamilyReportsRealizedSize) {
  register_builtin();
  const Scenario* s = Registry::instance().find("global/min/p2p/grid");
  ASSERT_NE(s, nullptr);
  const RunResult r = run(*s, 60, 7);  // rounds to an 8x8 grid
  EXPECT_EQ(r.realized_n, 64u);
  EXPECT_GT(r.metrics.rounds, 0u);
}

TEST(ScenarioRegistry, ChannelDisciplineAndAnonymousScenariosRegistered) {
  register_builtin();
  const Scenario* tdma = Registry::instance().find("global/max/tdma/ring");
  ASSERT_NE(tdma, nullptr);
  EXPECT_FALSE(tdma->channel_free);  // TDMA is a channel discipline
  const RunResult t = run(*tdma, 64, 7);
  // The fixed schedule costs one slot per station plus the final quiet slot.
  EXPECT_EQ(t.metrics.rounds, 65u);
  EXPECT_EQ(t.metrics.p2p_messages, 0u);

  const Scenario* anon = Registry::instance().find("partition/anon/random");
  ASSERT_NE(anon, nullptr);
  const RunResult a = run(*anon, 64, 7);
  EXPECT_GT(a.metrics.rounds, 0u);
  EXPECT_NE(a.digest, 0u);
}

TEST(ScenarioRegistry, AsyncRunMatchesSyncResultsForChannelFreeScenarios) {
  register_builtin();
  int checked = 0;
  for (const Scenario& s : Registry::instance().all()) {
    if (!s.channel_free) continue;
    ++checked;
    const NodeId n = s.sweep_n.front();
    const RunResult sync = run(s, n, s.default_seed);
    const RunResult async =
        run(s, n, s.default_seed, {.engine = EngineKind::kAsync});
    EXPECT_TRUE(async.completed) << s.name;
    // Different engine, different schedule — but the same computed results.
    EXPECT_EQ(sync.digest, async.digest) << s.name;
    // The synchronizer costs exactly one acknowledgement per message.
    EXPECT_EQ(async.metrics.p2p_messages, 2 * sync.metrics.p2p_messages)
        << s.name;
  }
  EXPECT_GE(checked, 2);
}

TEST(ScenarioRegistry, AsyncRunRejectsChannelUsingScenarios) {
  register_builtin();
  const Scenario* s = Registry::instance().find("mst/random");
  ASSERT_NE(s, nullptr);
  ASSERT_FALSE(s->channel_free);
  EXPECT_THROW(run(*s, 64, 7, {.engine = EngineKind::kAsync}),
               std::invalid_argument);
}

}  // namespace
}  // namespace mmn::scenario
