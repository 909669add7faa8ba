// Channel disciplines (sim/channel_discipline.hpp).
//
// Four families of guarantees:
//   * agreement — for a writer schedule with no collisions (and, for TDMA,
//     slot-aligned writers), every discipline yields the identical slot
//     outcome sequence, unit-level and engine-level;
//   * analytic slot counts — TDMA resolves k greedy contenders within one
//     cycle of n slots with zero collisions, and Capetanakis resolves the
//     full id set in exactly 2n - 1 probe slots (n successes, n - 1
//     collisions), both on hand-checked small cases;
//   * unslotted accounting — the busy-tone emulation preserves every
//     outcome of the free-for-all channel while its emergent tick envelope
//     follows the no-jitter formula exactly;
//   * crash withdrawal — stifle(v) removes exactly v's deferred write from
//     every deferring discipline, and v never transmits afterwards.
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/broadcast_global.hpp"
#include "channel/pseudo_bayesian.hpp"
#include "graph/generators.hpp"
#include "sim/channel_discipline.hpp"
#include "sim/engine.hpp"

namespace mmn {
namespace {

constexpr sim::DisciplineKind kAllKinds[] = {
    sim::DisciplineKind::kFreeForAll, sim::DisciplineKind::kTdma,
    sim::DisciplineKind::kCapetanakis, sim::DisciplineKind::kUnslotted};

/// Drives one discipline over a hand-built per-slot write schedule.
std::vector<sim::SlotObservation> drive(sim::ChannelDiscipline& d, NodeId n,
                                        const std::vector<std::vector<NodeId>>&
                                            writers_per_slot) {
  d.reset(n);
  sim::Channel channel;
  Metrics metrics;
  std::vector<sim::SlotObservation> out;
  for (const auto& writers : writers_per_slot) {
    std::vector<sim::ChannelWrite> writes;
    for (NodeId w : writers) {
      writes.push_back(sim::ChannelWrite{w, sim::Packet(1, {sim::Word{w}})});
    }
    out.push_back(d.slot(writes, channel, metrics));
  }
  EXPECT_EQ(d.backlog(), 0u);
  return out;
}

// --- agreement -------------------------------------------------------------

TEST(ChannelDiscipline, CollisionFreeScheduleIdenticalAcrossDisciplines) {
  // Writers aligned with the TDMA ownership (writer v in a slot s with
  // s % n == v) and never more than one per slot: nothing for any policy to
  // schedule, so all four must agree slot by slot.
  constexpr NodeId kN = 8;
  const std::vector<std::vector<NodeId>> schedule = {
      {0}, {1}, {}, {3}, {}, {5}, {6}, {}, {0}, {}, {2}, {3}};
  const std::vector<sim::SlotObservation> reference =
      drive(*sim::make_discipline(sim::DisciplineKind::kFreeForAll), kN,
            schedule);
  for (sim::DisciplineKind kind : kAllKinds) {
    auto d = sim::make_discipline(kind);
    const std::vector<sim::SlotObservation> got = drive(*d, kN, schedule);
    ASSERT_EQ(got.size(), reference.size()) << d->name();
    for (std::size_t s = 0; s < reference.size(); ++s) {
      EXPECT_EQ(got[s].state, reference[s].state) << d->name() << " slot " << s;
      EXPECT_EQ(got[s].writer, reference[s].writer) << d->name() << " slot " << s;
      EXPECT_TRUE(got[s].payload == reference[s].payload)
          << d->name() << " slot " << s;
    }
  }
}

TEST(ChannelDiscipline, SelfScheduledWorkloadIdenticalUnderEveryDiscipline) {
  // BroadcastGlobalProcess implements its own TDMA schedule (node v writes
  // in round v), so its write pattern is collision-free and slot-aligned:
  // every discipline must reproduce the free-for-all run bit for bit.
  const Graph g = complete(24, 5);
  const auto factory = [](const sim::LocalView& v) {
    return std::make_unique<BroadcastGlobalProcess>(
        v, SemigroupOp::kSum, static_cast<sim::Word>(v.self) + 1);
  };
  sim::Engine reference(g, factory, 5);
  const Metrics want = reference.run(1000);
  const sim::Word want_result =
      static_cast<const BroadcastGlobalProcess&>(reference.process(0)).result();
  for (sim::DisciplineKind kind : kAllKinds) {
    sim::Engine engine(g, factory, 5, nullptr, sim::make_discipline(kind));
    Metrics got = engine.run(1000);
    // channel_ticks is the one intentional difference: only the unslotted
    // emulation runs an emergent continuous-time clock alongside the
    // (identical) slot outcomes.
    if (kind == sim::DisciplineKind::kUnslotted) {
      EXPECT_GT(got.channel_ticks, 0u);
      got.channel_ticks = 0;
    }
    EXPECT_TRUE(got == want)
        << sim::discipline_name(kind) << "\nwant: " << want.to_string()
        << "\ngot:  " << got.to_string();
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_EQ(static_cast<const BroadcastGlobalProcess&>(engine.process(v))
                    .result(),
                want_result)
          << sim::discipline_name(kind) << " node " << v;
    }
  }
}

// --- analytic slot counts --------------------------------------------------

/// Runs n greedy contenders (ContentionGlobalProcess, inputs 1..n, sum)
/// under `kind`; every node must compute the full fold n(n+1)/2.  The
/// workload never touches the links, so any connected topology does.
Metrics run_contenders(NodeId n, sim::DisciplineKind kind) {
  const Graph g = complete(n, 3);
  const auto factory = [](const sim::LocalView& v) {
    return std::make_unique<ContentionGlobalProcess>(
        v, SemigroupOp::kSum, static_cast<sim::Word>(v.self) + 1);
  };
  sim::Engine engine(g, factory, 3, nullptr, sim::make_discipline(kind));
  const Metrics m = engine.run(10'000);
  const sim::Word want = static_cast<sim::Word>(n) * (n + 1) / 2;
  for (NodeId v = 0; v < n; ++v) {
    EXPECT_EQ(static_cast<const ContentionGlobalProcess&>(engine.process(v))
                  .result(),
              want)
        << "node " << v;
  }
  return m;
}

TEST(ChannelDiscipline, TdmaResolvesAllContendersInOneCycle) {
  // n greedy contenders, all writing from round 0: slot v hands the medium
  // to node v, so every slot of the first cycle is a success and nothing
  // ever collides.  Round n observes the last success; its own slot idles.
  for (NodeId n : {2u, 4u, 7u}) {
    const Metrics m = run_contenders(n, sim::DisciplineKind::kTdma);
    EXPECT_EQ(m.slots_success, n) << n;
    EXPECT_EQ(m.slots_collision, 0u) << n;
    EXPECT_EQ(m.slots_idle, 1u) << n;
    EXPECT_EQ(m.rounds, std::uint64_t{n} + 1) << n;
  }
}

TEST(ChannelDiscipline, CapetanakisHandCheckedSlotCounts) {
  // All n ids contend, so the depth-first traversal probes every internal
  // node of the id-space tree: 2n - 1 slots — n successes, n - 1 collisions
  // (each internal interval holds >= 2 pending ids).  Hand-checked for
  // n = 4: [0,4)x, [0,2)x, [0,1)ok, [1,2)ok, [2,4)x, [2,3)ok, [3,4)ok.
  // One trailing idle slot while the last success is observed.
  for (NodeId n : {2u, 4u, 8u}) {
    const Metrics m = run_contenders(n, sim::DisciplineKind::kCapetanakis);
    EXPECT_EQ(m.slots_success, n) << n;
    EXPECT_EQ(m.slots_collision, std::uint64_t{n} - 1) << n;
    EXPECT_EQ(m.slots_idle, 1u) << n;
    EXPECT_EQ(m.rounds, 2 * std::uint64_t{n}) << n;
  }
}

TEST(ChannelDiscipline, CapetanakisBatchesMidEpochArrivalsIntoNextEpoch) {
  // Ids 0 and 3 contend from slot 0; id 1 arrives mid-traversal and must
  // wait for the second epoch.  Epoch 1 over {0, 3}: [0,4) collision,
  // [0,2) success(0), [2,4) success(3) — 3 slots.  Epoch 2 over {1}:
  // [0,4) success(1) — 1 slot.
  auto d = sim::make_discipline(sim::DisciplineKind::kCapetanakis);
  const std::vector<sim::SlotObservation> got =
      drive(*d, 4, {{0, 3}, {1}, {}, {}});
  ASSERT_EQ(got.size(), 4u);
  EXPECT_TRUE(got[0].collision());
  EXPECT_TRUE(got[1].success());
  EXPECT_EQ(got[1].writer, 0u);
  EXPECT_TRUE(got[2].success());
  EXPECT_EQ(got[2].writer, 3u);
  EXPECT_TRUE(got[3].success());
  EXPECT_EQ(got[3].writer, 1u);
}

TEST(ChannelDiscipline, ProbeExposesTheTraversalInterval) {
  CapetanakisResolver resolver(8);
  ASSERT_TRUE(resolver.probe().has_value());
  EXPECT_EQ(*resolver.probe(), std::make_pair(std::uint64_t{0},
                                              std::uint64_t{8}));
  sim::SlotObservation collision;
  collision.state = sim::SlotState::kCollision;
  resolver.observe(collision);
  EXPECT_EQ(*resolver.probe(), std::make_pair(std::uint64_t{0},
                                              std::uint64_t{4}));
  sim::SlotObservation idle;
  resolver.observe(idle);  // [0,4) idle -> probe the right half
  EXPECT_EQ(*resolver.probe(), std::make_pair(std::uint64_t{4},
                                              std::uint64_t{8}));
}

// --- unslotted accounting --------------------------------------------------

TEST(ChannelDiscipline, UnslottedPreservesOutcomesAndAccountsTicks) {
  sim::UnslottedConfig config;
  config.reaction_delay_max = 0;  // no jitter: the envelope is exact
  config.transmit_ticks = 32;
  config.idle_gap_ticks = 4;
  sim::UnslottedDiscipline d(config);
  const std::vector<std::vector<NodeId>> schedule = {
      {0}, {1, 2}, {}, {3}, {0, 1, 2, 3}, {}};
  const std::vector<sim::SlotObservation> reference =
      drive(*sim::make_discipline(sim::DisciplineKind::kFreeForAll), 4,
            schedule);
  d.reset(4);
  sim::Channel channel;
  Metrics metrics;
  std::uint64_t want_ticks = 0;
  for (std::size_t s = 0; s < schedule.size(); ++s) {
    std::vector<sim::ChannelWrite> writes;
    for (NodeId w : schedule[s]) {
      writes.push_back(sim::ChannelWrite{w, sim::Packet(1)});
    }
    const sim::SlotObservation obs = d.slot(writes, channel, metrics);
    EXPECT_EQ(obs.state, reference[s].state) << "slot " << s;
    // No jitter: every active station keys up one tick after the boundary
    // and holds for transmit_ticks; an idle slot is just the gap.
    want_ticks += schedule[s].empty()
                      ? config.idle_gap_ticks
                      : 1 + config.transmit_ticks + config.idle_gap_ticks;
    EXPECT_EQ(d.ticks(), want_ticks) << "slot " << s;
    EXPECT_EQ(metrics.channel_ticks, want_ticks) << "slot " << s;
  }
}

/// Writes once in round 0 and immediately reports finished — the worst case
/// for a deferring discipline, which still holds the write as backlog when
/// every process is done.
class FireAndForgetProcess final : public sim::Process {
 public:
  explicit FireAndForgetProcess(const sim::LocalView& view) : view_(view) {}

  void round(sim::NodeContext& ctx) override {
    if (!sent_) {
      ctx.channel_write(sim::Packet(1, {sim::Word{view_.self}}));
      sent_ = true;
    }
  }
  bool finished() const override { return sent_; }

 private:
  const sim::LocalView& view_;
  bool sent_ = false;
};

TEST(ChannelDiscipline, SyncEngineDrainsDeferredBacklogBeforeCompleting) {
  // All n fire-and-forget writes land in round 0.  Free-for-all resolves
  // them as one collision; a deferring discipline must keep the engine
  // running past all_finished() until every deferred write has actually
  // been transmitted (TDMA: one success per owned slot; Capetanakis: the
  // 2n - 1 probe traversal), instead of silently dropping the backlog.
  constexpr NodeId kN = 4;
  const Graph g = complete(kN, 11);
  const auto factory = [](const sim::LocalView& v) {
    return std::make_unique<FireAndForgetProcess>(v);
  };
  {
    sim::Engine engine(g, factory, 11, nullptr,
                       sim::make_discipline(sim::DisciplineKind::kFreeForAll));
    const Metrics m = engine.run(100);
    EXPECT_EQ(m.slots_collision, 1u);
    EXPECT_EQ(m.slots_success, 0u);
  }
  {
    sim::Engine engine(g, factory, 11, nullptr,
                       sim::make_discipline(sim::DisciplineKind::kTdma));
    const Metrics m = engine.run(100);
    EXPECT_EQ(m.slots_success, kN);
    EXPECT_EQ(m.slots_collision, 0u);
  }
  {
    sim::Engine engine(g, factory, 11, nullptr,
                       sim::make_discipline(sim::DisciplineKind::kCapetanakis));
    const Metrics m = engine.run(100);
    EXPECT_EQ(m.slots_success, kN);
    EXPECT_EQ(m.slots_collision, std::uint64_t{kN} - 1);
  }
}

TEST(ChannelDiscipline, StifleWithdrawsOnlyTheCrashedStation) {
  // A node crash (sim/fault.hpp) calls stifle(v) on the run's discipline:
  // v's deferred write must leave the backlog and never transmit, while
  // the other station's write still drains.  With one station left, any
  // collision during the drain could only be v transmitting.
  constexpr NodeId kN = 8;
  constexpr NodeId kCrashed = 3;
  constexpr NodeId kOther = 5;
  // Data-class payloads: the reservation MAC defers them to its data lane
  // rather than granting the first one a collision-free slot at once.
  const auto write = [](NodeId v) {
    return sim::ChannelWrite{
        v, sim::Packet(sim::qos_tagged(1, sim::QosClass::kData),
                       {sim::Word{v}})};
  };
  for (const sim::DisciplineKind kind :
       {sim::DisciplineKind::kTdma, sim::DisciplineKind::kCapetanakis,
        sim::DisciplineKind::kPseudoBayesian,
        sim::DisciplineKind::kReservation}) {
    auto d = sim::make_discipline(kind);
    d->reset(kN);
    sim::Channel channel;
    Metrics metrics;
    const std::vector<sim::ChannelWrite> writes = {write(kCrashed),
                                                   write(kOther)};
    ASSERT_FALSE(d->slot(writes, channel, metrics).success()) << d->name();
    ASSERT_EQ(d->backlog(), 2u) << d->name();
    d->stifle(kCrashed);
    EXPECT_EQ(d->backlog(), 1u) << d->name();
    bool other_sent = false;
    for (int s = 0; s < 1000 && d->backlog() > 0; ++s) {
      const sim::SlotObservation obs = d->slot({}, channel, metrics);
      EXPECT_FALSE(obs.collision()) << d->name() << " slot " << s;
      if (obs.success()) {
        EXPECT_NE(obs.writer, kCrashed) << d->name() << " slot " << s;
        other_sent = other_sent || obs.writer == kOther;
      }
    }
    EXPECT_EQ(d->backlog(), 0u) << d->name();
    EXPECT_TRUE(other_sent) << d->name();
  }
}

/// The pseudo-Bayesian lottery as first written: every slot scans all n
/// pending slots in ascending order, one draw per pending station.  The
/// discipline's pending-id list must reproduce it draw for draw.
class FullScanPseudoBayes {
 public:
  FullScanPseudoBayes(std::uint64_t seed, NodeId n) : rng_(seed), pending_(n) {}

  void file(const sim::ChannelWrite& w) {
    if (!pending_[w.node]) ++backlog_;
    pending_[w.node] = w.packet;
  }

  void stifle(NodeId v) {
    if (pending_[v]) {
      pending_[v].reset();
      --backlog_;
    }
  }

  sim::SlotObservation contend(sim::Channel& channel, Metrics& metrics) {
    const double p = nu_ <= 1.0 ? 1.0 : 1.0 / nu_;
    for (NodeId v = 0; v < pending_.size(); ++v) {
      if (pending_[v] && rng_.next_bernoulli(p)) {
        channel.write(v, *pending_[v]);
      }
    }
    const sim::SlotObservation obs = channel.resolve(metrics);
    nu_ = rivest_update(nu_, obs.collision());
    if (obs.success()) {
      pending_[obs.writer].reset();
      --backlog_;
    }
    return obs;
  }

  std::size_t backlog() const { return backlog_; }

 private:
  Rng rng_;
  double nu_ = 1.0;
  std::size_t backlog_ = 0;
  std::vector<std::optional<sim::Packet>> pending_;
};

TEST(ChannelDiscipline, PseudoBayesPendingListMatchesFullScan) {
  constexpr NodeId kN = 48;
  for (const std::uint64_t seed : {1u, 7u, 99u}) {
    sim::PseudoBayesianDiscipline d(seed);
    d.reset(kN);
    FullScanPseudoBayes ref(seed, kN);
    sim::Channel channel, ref_channel;
    Metrics metrics, ref_metrics;
    Rng ops(seed * 31 + 5);
    std::uint64_t successes = 0;
    for (int i = 0; i < 6000; ++i) {
      const std::uint64_t op = ops.next_below(10);
      const auto v = static_cast<NodeId>(ops.next_below(kN));
      if (op < 5) {  // file: a new station, or a re-key of a pending one
        const sim::ChannelWrite w{
            v, sim::Packet(1, {sim::Word{v},
                               static_cast<sim::Word>(ops.next_u64())})};
        d.file(w);
        ref.file(w);
      } else if (op < 6) {
        d.stifle(v);
        ref.stifle(v);
      } else {
        const sim::SlotObservation got = d.contend(channel, metrics);
        const sim::SlotObservation want =
            ref.contend(ref_channel, ref_metrics);
        ASSERT_EQ(got.state, want.state) << "seed " << seed << " op " << i;
        if (want.success()) {
          ++successes;
          ASSERT_EQ(got.writer, want.writer) << "seed " << seed << " op " << i;
          ASSERT_TRUE(got.payload == want.payload)
              << "seed " << seed << " op " << i;
        }
      }
      ASSERT_EQ(d.backlog(), ref.backlog()) << "seed " << seed << " op " << i;
    }
    EXPECT_TRUE(metrics == ref_metrics) << "seed " << seed;
    EXPECT_GT(successes, 100u) << "seed " << seed;
  }
}

TEST(ChannelDiscipline, DeferringPolicyFlagsMatchBehavior) {
  EXPECT_FALSE(sim::make_discipline(sim::DisciplineKind::kFreeForAll)->defers());
  EXPECT_FALSE(sim::make_discipline(sim::DisciplineKind::kUnslotted)->defers());
  EXPECT_TRUE(sim::make_discipline(sim::DisciplineKind::kTdma)->defers());
  EXPECT_TRUE(sim::make_discipline(sim::DisciplineKind::kCapetanakis)->defers());
  EXPECT_TRUE(
      sim::make_discipline(sim::DisciplineKind::kPseudoBayesian)->defers());
  EXPECT_TRUE(sim::make_discipline(sim::DisciplineKind::kReservation)->defers());
}

}  // namespace
}  // namespace mmn
