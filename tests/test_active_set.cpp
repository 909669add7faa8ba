// The active set: the synchronous engine steps only the nodes that have
// work.  A node may ask to sleep (NodeContext::sleep) until a message
// arrives for it or a channel slot resolves idle, or to doze
// (NodeContext::doze) until a message arrives or a public fold's event
// fires.  SteppedProcess asks to sleep at the end of every barrier-step
// round whose step_done() holds and to doze at the end of every
// observed-step round whose step_dormant() holds; the contracts in
// core/stepped.hpp make the rounds it rests through no-ops.  This file
// holds the engine to that bargain:
//
//  * the audit — every synchronous registry scenario, serial, 4 threads and
//    2 ranks, re-run with the sleep and doze requests withdrawn so the
//    engine steps every node, checking each round the active set would
//    have skipped: no RNG draw, no send, no channel write; the digest,
//    Metrics and FaultStats must equal the active-set run's;
//  * the cut — global/min/rand/ring at n = 4096, seed 7, makes an exact,
//    pinned number of handler calls, at most 2% of n × rounds, and so does
//    size/det/random at n = 4096, seed 7, at most 20%;
//  * the wake rules on toy processes: a message wakes its destination (also
//    across ranks), an idle slot wakes every sleeper but no dozer, a fold's
//    event wakes every dozer, and a sleeper that crashes and is sent a
//    message drops it exactly as the dense run does.
#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "scenario/registry.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "sim/rank.hpp"
#include "sim/scheduler.hpp"
#include "sim/shard_comm.hpp"
#include "support/check.hpp"

namespace mmn::sim {

/// The seam NodeContext befriends for this file: withdraws a node's sleep
/// or doze request, so the engine keeps stepping it, and tells whether a
/// public fold's event fired at the end of the previous round (the wake
/// signal of dozers).
struct SleepAudit {
  static void withdraw(NodeContext& ctx) {
    ctx.sleep_ = false;
    ctx.doze_ = false;
  }
  static bool fold_event(const NodeContext& ctx) {
    return ctx.folds_ != nullptr && ctx.folds_->event();
  }
};

}  // namespace mmn::sim

namespace mmn {
namespace {

/// Rounds the audit stepped although the node slept (dozed) through them,
/// in this process (a sharded run's rank 0; the other ranks count in their
/// own).
std::atomic<std::uint64_t> g_audited_sleeps{0};
std::atomic<std::uint64_t> g_audited_dozes{0};

/// Steps its inner process every round and withdraws every sleep and doze
/// request, so the engine stays dense.  On each round the active set would
/// have skipped — the inbox is empty and the node's last request was to
/// sleep with the previous slot busy, or to doze with no fold event since —
/// it checks that the inner round was a no-op: the RNG stream did not move,
/// nothing was sent, the channel was not written.  A violation throws,
/// which fails the run under any scheduler (rethrown on the caller) and any
/// rank (the parent throws).
class AuditProcess final : public sim::Process {
 public:
  explicit AuditProcess(std::unique_ptr<sim::Process> inner)
      : inner_(std::move(inner)) {}

  void round(sim::NodeContext& ctx) override {
    const bool slept = asleep_ && !ctx.slot().idle();
    const bool dozed = dozing_ && !sim::SleepAudit::fold_event(ctx);
    const bool skipped = ctx.inbox().empty() && (slept || dozed);
    const Rng before = ctx.rng();
    inner_->round(ctx);
    if (skipped) {
      (slept ? g_audited_sleeps : g_audited_dozes)
          .fetch_add(1, std::memory_order_relaxed);
      if (!(ctx.rng() == before) || ctx.sent_message() ||
          ctx.wrote_channel()) {
        throw std::logic_error(
            "node " + std::to_string(ctx.self()) + " acted in round " +
            std::to_string(ctx.round()) + ", which it " +
            (slept ? "slept" : "dozed") + " through");
      }
    }
    // The engine lets a sleep request win over a doze request.
    asleep_ = ctx.sleep_requested();
    dozing_ = !asleep_ && ctx.doze_requested();
    sim::SleepAudit::withdraw(ctx);
  }

  bool finished() const override { return inner_->finished(); }

  const sim::Process& inner() const { return *inner_; }

 private:
  std::unique_ptr<sim::Process> inner_;
  bool asleep_ = false;
  bool dozing_ = false;
};

/// Counts handler calls, forwards everything — sleep requests included, so
/// the count is the active set's.
class CountingProcess final : public sim::Process {
 public:
  CountingProcess(std::unique_ptr<sim::Process> inner,
                  std::atomic<std::uint64_t>& calls)
      : inner_(std::move(inner)), calls_(&calls) {}

  void round(sim::NodeContext& ctx) override {
    calls_->fetch_add(1, std::memory_order_relaxed);
    inner_->round(ctx);
  }

  bool finished() const override { return inner_->finished(); }

  const sim::Process& inner() const { return *inner_; }

 private:
  std::unique_ptr<sim::Process> inner_;
  std::atomic<std::uint64_t>* calls_;
};

/// `s` with every protocol process wrapped by `wrap` and the digest reading
/// through the wrapper (Wrapper::inner()).  Open-loop stations are built by
/// run() itself, not by make_factory, and never sleep; they run unwrapped.
template <class Wrapper, class Wrap>
scenario::Scenario decorated(const scenario::Scenario& s, Wrap wrap) {
  scenario::Scenario d = s;
  if (s.open_loop() != nullptr) return d;
  d.make_factory = [make = s.make_factory, wrap](const Graph& g) {
    return sim::ProcessFactory(
        [inner = make(g), wrap](const sim::LocalView& v)
            -> std::unique_ptr<sim::Process> { return wrap(inner(v)); });
  };
  if (s.digest) {
    d.digest = [digest = s.digest](const scenario::NodeResults& r) {
      scenario::NodeResults unwrapped = r;
      unwrapped.at = [at = r.at](NodeId v) -> const sim::Process& {
        return static_cast<const Wrapper&>(at(v)).inner();
      };
      return digest(unwrapped);
    };
  }
  return d;
}

scenario::Scenario audited(const scenario::Scenario& s) {
  return decorated<AuditProcess>(s, [](std::unique_ptr<sim::Process> p) {
    return std::make_unique<AuditProcess>(std::move(p));
  });
}

scenario::Scenario counted(const scenario::Scenario& s,
                           std::atomic<std::uint64_t>& calls) {
  return decorated<CountingProcess>(
      s, [&calls](std::unique_ptr<sim::Process> p) {
        return std::make_unique<CountingProcess>(std::move(p), calls);
      });
}

struct Mode {
  const char* name;
  scenario::RunConfig config;
};

TEST(ActiveSet, SleepingNodesSteppedAnywayActNotAndChangeNothing) {
  scenario::register_builtin();
  const Mode modes[] = {{"serial", {}},
                        {"4 threads", {.threads = 4}},
                        {"2 ranks", {.ranks = 2}}};
  for (const Mode& mode : modes) {
    std::uint64_t audited_sleeps = 0;
    std::set<std::string> dozed;  // scenarios with an audited dozed round
    for (const scenario::Scenario& s : scenario::Registry::instance().all()) {
      if (s.recovery() && mode.config.ranks > 1) continue;  // not shardable
      const NodeId n = s.sweep_n.front();
      const scenario::RunResult active =
          scenario::run(s, n, s.default_seed, mode.config);
      const std::uint64_t sleeps_before = g_audited_sleeps.load();
      const std::uint64_t dozes_before = g_audited_dozes.load();
      scenario::RunResult dense;
      try {
        dense = scenario::run(audited(s), n, s.default_seed, mode.config);
      } catch (const std::exception& e) {
        ADD_FAILURE() << s.name << " (" << mode.name << "): " << e.what();
        continue;
      }
      audited_sleeps += g_audited_sleeps.load() - sleeps_before;
      if (g_audited_dozes.load() != dozes_before) dozed.insert(s.name);
      EXPECT_TRUE(active.metrics == dense.metrics)
          << s.name << " (" << mode.name << "): metrics diverged\n"
          << "active set: " << active.metrics.to_string() << "\n"
          << "dense:      " << dense.metrics.to_string();
      EXPECT_EQ(active.digest, dense.digest)
          << s.name << " (" << mode.name << "): digest diverged";
      EXPECT_TRUE(active.faults == dense.faults)
          << s.name << " (" << mode.name << "): fault stats diverged";
      EXPECT_EQ(active.completed, dense.completed) << s.name;
    }
    // The audit is vacuous unless some node actually slept, and dozed in
    // each stage that folds its channel state once per engine: the global
    // stage, the Section 7.3 size check and MST stage 2.
    EXPECT_GT(audited_sleeps, 0u) << mode.name;
    for (const char* name :
         {"global/min/rand/ring", "size/det/random", "mst/random"}) {
      EXPECT_EQ(dozed.count(name), 1u) << name << " (" << mode.name << ")";
    }
  }
}

/// Runs `name` at n, seed with handler calls counted, serial and 4 threads:
/// both runs must reproduce the plain run and make exactly `pinned` calls
/// (the set of resting nodes is the same under any scheduler, so the count
/// is too), at most 1 / `share` of the n x rounds calls stepping every node
/// would make.
void expect_calls(const char* name, NodeId n, std::uint64_t seed,
                  std::uint64_t pinned, std::uint64_t share) {
  scenario::register_builtin();
  const scenario::Scenario* s = scenario::Registry::instance().find(name);
  ASSERT_NE(s, nullptr) << name;
  const scenario::RunResult plain = scenario::run(*s, n, seed);
  for (unsigned threads : {1u, 4u}) {
    std::atomic<std::uint64_t> calls{0};
    const scenario::RunResult r =
        scenario::run(counted(*s, calls), n, seed, {.threads = threads});
    ASSERT_TRUE(r.completed) << name;
    EXPECT_EQ(r.digest, plain.digest) << name;
    EXPECT_TRUE(r.metrics == plain.metrics) << name;
    const std::uint64_t node_rounds = std::uint64_t{n} * r.metrics.rounds;
    EXPECT_EQ(calls.load(), pinned)
        << name << ": of " << node_rounds << " node-rounds, " << threads
        << " thread(s)";
    EXPECT_LE(calls.load() * share, node_rounds)
        << name << ": " << calls.load() << " handler calls for "
        << node_rounds << " node-rounds";
  }
}

TEST(ActiveSet, RingHandlerCallsArePinnedAndCut) {
  // Barrier sleep alone made 1,641,974 calls; dozing through the global
  // stage, whose public state the engine folds once, leaves the roots'
  // calls.
  expect_calls("global/min/rand/ring", 4096, 7, 134034, 50);
}

TEST(ActiveSet, SizeCheckHandlerCallsArePinnedAndCut) {
  // With one Capetanakis copy per node, the Section 7.3 size checks alone
  // made about 4.84M of the run's 5.47M calls; dozing through them, with
  // the traversal folded once per engine, leaves the cores' calls and the
  // partition's barrier steps.
  expect_calls("size/det/random", 4096, 7, 1251237, 5);
}

// --- Wake rules on a toy process ------------------------------------------

constexpr std::uint64_t kSendAt = 3;     // node 0 messages its neighbors
constexpr std::uint64_t kBusyUntil = 9;  // first round node 0 stays silent
constexpr NodeId kToyN = 8;

/// On a ring: node 0 writes the channel every round before kBusyUntil and
/// broadcasts to its two neighbors in round kSendAt; every other node only
/// logs the rounds it is stepped in and asks to sleep.  Everyone finishes on
/// the first idle slot, heard in round kBusyUntil + 1.  A sleeper's skipped
/// rounds would change nothing but the log, which the test reads.
class ToyProcess final : public sim::Process {
 public:
  ToyProcess(const sim::LocalView& view, bool sleeps)
      : view_(view), sleeps_(sleeps) {}

  void round(sim::NodeContext& ctx) override {
    stepped_.push_back(ctx.round());
    if (ctx.round() > 0 && ctx.slot().idle()) {
      finished_ = true;
      return;
    }
    received_ += ctx.inbox().size();
    if (view_.self == 0) {
      if (ctx.round() < kBusyUntil) ctx.channel_write(sim::Packet(1));
      if (ctx.round() == kSendAt) ctx.broadcast(sim::Packet(2));
      return;
    }
    if (sleeps_) ctx.sleep();
  }

  bool finished() const override { return finished_; }

  std::vector<std::uint64_t> stepped_;
  std::uint64_t received_ = 0;

 private:
  const sim::LocalView& view_;
  bool sleeps_;
  bool finished_ = false;
};

sim::ProcessFactory toy_factory(bool sleeps) {
  return [sleeps](const sim::LocalView& v) {
    return std::make_unique<ToyProcess>(v, sleeps);
  };
}

const ToyProcess& toy(const sim::Engine& e, NodeId v) {
  return static_cast<const ToyProcess&>(e.process(v));
}

std::vector<std::uint64_t> all_rounds() {
  std::vector<std::uint64_t> r;
  for (std::uint64_t i = 0; i <= kBusyUntil + 1; ++i) r.push_back(i);
  return r;
}

/// The rounds node v is stepped in when it sleeps: round 0, the round after
/// node 0's message if v is its neighbor, and the idle-slot round.
std::vector<std::uint64_t> expected_rounds(NodeId v) {
  if (v == 0) return all_rounds();
  if (v == 1 || v == kToyN - 1) return {0, kSendAt + 1, kBusyUntil + 1};
  return {0, kBusyUntil + 1};
}

TEST(ActiveSet, MessageAndIdleSlotWakeSleepers) {
  const Graph g = ring(kToyN, 3);
  for (unsigned threads : {1u, 2u}) {
    sim::Engine dense(g, toy_factory(false), 5, sim::make_scheduler(threads));
    sim::Engine active(g, toy_factory(true), 5, sim::make_scheduler(threads));
    dense.run(100);
    active.run(100);
    ASSERT_EQ(active.status(), sim::RunStatus::kCompleted);
    EXPECT_TRUE(dense.metrics() == active.metrics());
    EXPECT_EQ(active.metrics().rounds, kBusyUntil + 2);
    for (NodeId v = 0; v < kToyN; ++v) {
      EXPECT_EQ(toy(dense, v).stepped_, all_rounds()) << "node " << v;
      EXPECT_EQ(toy(active, v).stepped_, expected_rounds(v))
          << "node " << v << ", " << threads << " thread(s)";
      EXPECT_EQ(toy(active, v).received_, toy(dense, v).received_);
    }
  }
}

TEST(ActiveSet, IngressMessagesWakeSleepersOnTheirRank) {
  // Windows [0, 4) and [4, 8): node 0's message to node 7 crosses ranks.
  const TopologySpec spec{TopoKind::kRing, kToyN, 3};
  try {
    sim::shard_comm::run_ranks(2, [&](sim::shard_comm::Transport& t) {
      const auto [lo, hi] = sim::Scheduler::shard_range(kToyN, t.rank(), 2);
      const Graph g = build_topology_window(spec, GraphWindow{lo, hi});
      sim::Engine eng(g, sim::RankSpec{t.rank(), 2, lo, hi}, toy_factory(true),
                      5, t, nullptr);
      eng.run(100);
      MMN_REQUIRE(eng.status() == sim::RunStatus::kCompleted,
                  "toy run did not complete");
      for (NodeId v = lo; v < hi; ++v) {
        MMN_REQUIRE(toy(eng, v).stepped_ == expected_rounds(v),
                    "rank " + std::to_string(t.rank()) + ": node " +
                        std::to_string(v) + " stepped in the wrong rounds");
      }
    });
  } catch (const std::exception& e) {
    ADD_FAILURE() << e.what();
  }
}

TEST(ActiveSet, CrashedSleeperDropsWhatTheDenseRunDrops) {
  // Node 1 sleeps from round 0; node 0's message reaches it in round
  // kSendAt + 1, the round it crashes.  Woken while down, it drops the
  // message and stays awake, so it is stepped again as soon as it
  // recovers.
  const Graph g = ring(kToyN, 3);
  sim::FaultPlan plan;
  plan.add({kSendAt + 1, sim::FaultKind::kNodeCrash, 1});
  plan.add({kSendAt + 3, sim::FaultKind::kNodeRecover, 1});
  sim::Engine dense(g, toy_factory(false), 5);
  sim::Engine active(g, toy_factory(true), 5);
  dense.install_faults(plan);
  active.install_faults(plan);
  dense.run(100);
  active.run(100);
  ASSERT_EQ(active.status(), sim::RunStatus::kCompleted);
  EXPECT_TRUE(dense.metrics() == active.metrics());
  EXPECT_TRUE(dense.faults()->stats() == active.faults()->stats());
  EXPECT_EQ(active.faults()->stats().drops, 1u);
  EXPECT_EQ(toy(active, 1).received_, 0u);
  const std::vector<std::uint64_t> node1{0, kSendAt + 3, kBusyUntil + 1};
  EXPECT_EQ(toy(active, 1).stepped_, node1);
  EXPECT_EQ(toy(active, kToyN - 1).stepped_, expected_rounds(kToyN - 1));
}

// --- Doze: fold events wake, idle slots do not ----------------------------

constexpr std::uint64_t kIdleAt = 5;   // the one round node 0 stays silent
constexpr std::uint64_t kEventAt = 7;  // the fold's event fires on this slot

/// Counts folded slots; its event fires on the slot of round kEventAt.
class SlotCountFold final : public sim::PublicFold {
 public:
  bool fold(const sim::SlotObservation&) override {
    return ++folded_ == kEventAt + 1;
  }
  bool fired() const { return folded_ > kEventAt; }

 private:
  std::uint64_t folded_ = 0;
};

enum class Rest : std::uint8_t { kNone, kSleep, kDoze };

/// On a ring: every node takes the round-0 SlotCountFold and finishes in
/// the first round it sees the fold's event.  Until then node 0 writes the
/// channel every round but kIdleAt and broadcasts to its two neighbors in
/// round kSendAt; every other node logs the rounds it is stepped in and
/// rests as told.
class FoldToyProcess final : public sim::Process {
 public:
  FoldToyProcess(const sim::LocalView& view, Rest rest)
      : view_(view), rest_(rest) {}

  void round(sim::NodeContext& ctx) override {
    stepped_.push_back(ctx.round());
    if (ctx.round() == 0) {
      fold_ = &ctx.public_fold<SlotCountFold>([] { return SlotCountFold(); });
    }
    if (fold_->fired()) {
      finished_ = true;
      return;
    }
    received_ += ctx.inbox().size();
    if (view_.self == 0) {
      if (ctx.round() != kIdleAt) ctx.channel_write(sim::Packet(1));
      if (ctx.round() == kSendAt) ctx.broadcast(sim::Packet(2));
      return;
    }
    if (rest_ == Rest::kSleep) ctx.sleep();
    if (rest_ == Rest::kDoze) ctx.doze();
  }

  bool finished() const override { return finished_; }

  std::vector<std::uint64_t> stepped_;
  std::uint64_t received_ = 0;

 private:
  const sim::LocalView& view_;
  Rest rest_;
  const SlotCountFold* fold_ = nullptr;
  bool finished_ = false;
};

const FoldToyProcess& fold_toy(const sim::Engine& e, NodeId v) {
  return static_cast<const FoldToyProcess&>(e.process(v));
}

sim::Engine fold_toy_engine(const Graph& g, Rest rest, unsigned threads) {
  return sim::Engine(
      g,
      [rest](const sim::LocalView& v) {
        return std::make_unique<FoldToyProcess>(v, rest);
      },
      5, sim::make_scheduler(threads));
}

TEST(ActiveSet, FoldEventsAndMessagesWakeDozersIdleSlotsDoNot) {
  const Graph g = ring(kToyN, 3);
  for (unsigned threads : {1u, 2u}) {
    sim::Engine dense = fold_toy_engine(g, Rest::kNone, threads);
    sim::Engine dozing = fold_toy_engine(g, Rest::kDoze, threads);
    sim::Engine sleeping = fold_toy_engine(g, Rest::kSleep, threads);
    dense.run(100);
    dozing.run(100);
    sleeping.run(100);
    ASSERT_EQ(dozing.status(), sim::RunStatus::kCompleted);
    ASSERT_EQ(sleeping.status(), sim::RunStatus::kCompleted);
    EXPECT_TRUE(dense.metrics() == dozing.metrics());
    EXPECT_EQ(dozing.metrics().rounds, kEventAt + 2);
    for (NodeId v = 1; v < kToyN; ++v) {
      const bool neighbor = v == 1 || v == kToyN - 1;
      // A dozer wakes for node 0's message and for the event, never for
      // the idle slot of round kIdleAt.
      std::vector<std::uint64_t> dozer{0, kEventAt + 1};
      // A sleeper wakes for the message and the idle slot but sleeps
      // through the event, until node 0's silence after finishing.
      std::vector<std::uint64_t> sleeper{0, kIdleAt + 1, kEventAt + 2};
      if (neighbor) {
        dozer.insert(dozer.begin() + 1, kSendAt + 1);
        sleeper.insert(sleeper.begin() + 1, kSendAt + 1);
      }
      EXPECT_EQ(fold_toy(dozing, v).stepped_, dozer)
          << "node " << v << ", " << threads << " thread(s)";
      EXPECT_EQ(fold_toy(sleeping, v).stepped_, sleeper)
          << "node " << v << ", " << threads << " thread(s)";
      EXPECT_EQ(fold_toy(dozing, v).received_, fold_toy(dense, v).received_);
      EXPECT_EQ(fold_toy(sleeping, v).received_,
                fold_toy(dense, v).received_);
    }
  }
}

}  // namespace
}  // namespace mmn
