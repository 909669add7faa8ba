// Scheduler equivalence: SerialScheduler and ParallelScheduler must produce
// bit-identical Metrics and identical per-node results for the same seed.
//
// The guarantee rests on three mechanisms (sim/scheduler.hpp,
// sim/runtime_core.hpp): shards are contiguous ascending node ranges, every
// externally visible effect is staged per shard and merged in ascending
// shard order (= serial node order), and each node draws only from its own
// forked RNG stream.  The suite exercises the heaviest protocols in the
// library — MST, both partitions, and the global-function algorithms — on
// random graphs across thread counts and seeds, plus a delivery-order
// microtest that pins down the arena's inbox ordering.
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/p2p_global.hpp"
#include "core/mst.hpp"
#include "core/partition.hpp"
#include "core/partition_det.hpp"
#include "core/partition_rand.hpp"
#include "core/synchronizer.hpp"
#include "graph/generators.hpp"
#include "scenario/registry.hpp"
#include "sim/async_engine.hpp"
#include "sim/engine.hpp"
#include "sim/scheduler.hpp"
#include "support/simd.hpp"

namespace mmn {
namespace {

constexpr unsigned kThreadCounts[] = {2, 4, 8};

// --- scenario-level equivalence ------------------------------------------
//
// Every registered scenario (MST, partitions, global functions, baselines,
// size computation) runs serial vs parallel; Metrics and the per-node result
// digest must match exactly.

TEST(SchedulerEquivalence, AllScenariosMatchSerialAcrossThreadCounts) {
  scenario::register_builtin();
  const auto& scenarios = scenario::Registry::instance().all();
  // The registry must keep its discipline-variant entries (TDMA,
  // Capetanakis, unslotted) so this suite holds every ChannelDiscipline to
  // scheduler independence, not just the free-for-all channel.
  ASSERT_GE(scenarios.size(), 16u);
  int disciplined = 0;
  for (const scenario::Scenario& s : scenarios) {
    if (s.discipline != sim::DisciplineKind::kFreeForAll) ++disciplined;
  }
  ASSERT_GE(disciplined, 4);
  for (const scenario::Scenario& s : scenarios) {
    const NodeId n = s.sweep_n.front();
    const scenario::RunResult serial = scenario::run(s, n, s.default_seed);
    for (unsigned threads : kThreadCounts) {
      const scenario::RunResult parallel =
          scenario::run(s, n, s.default_seed, {.threads = threads});
      EXPECT_TRUE(serial.metrics == parallel.metrics)
          << s.name << " with " << threads << " threads: metrics diverged\n"
          << "serial:   " << serial.metrics.to_string() << "\n"
          << "parallel: " << parallel.metrics.to_string();
      EXPECT_EQ(serial.digest, parallel.digest)
          << s.name << " with " << threads
          << " threads: per-node results diverged";
    }
  }
}

// --- SIMD dispatch equivalence -------------------------------------------
//
// The flip/stage counting sorts dispatch between a scalar reference path and
// an AVX2 path (support/simd.hpp).  A histogram and an exclusive prefix sum
// have exactly one right answer and the scatter loops stay scalar and
// stable, so the two paths must be BIT-identical — not merely statistically
// equivalent.  This pin runs every registered scenario on both dispatch
// levels, serial and 4-thread, and requires identical Metrics and per-node
// digests.  (kScalar is always safe to force; the detected level is
// whatever this host actually runs, so on an AVX2 machine this compares the
// vector kernels against the reference, and on any other machine it is a
// cheap self-check.)

TEST(SchedulerEquivalence, ScalarAndSimdDispatchBitIdentical) {
  scenario::register_builtin();
  struct OverrideGuard {
    ~OverrideGuard() { simd::clear_level_override(); }
  } guard;
  for (const scenario::Scenario& s : scenario::Registry::instance().all()) {
    const NodeId n = s.sweep_n.front();

    simd::set_level_override(simd::Level::kScalar);
    const scenario::RunResult scalar_serial =
        scenario::run(s, n, s.default_seed);
    const scenario::RunResult scalar_par =
        scenario::run(s, n, s.default_seed, {.threads = 4});

    simd::clear_level_override();  // back to the detected level
    const scenario::RunResult native_serial =
        scenario::run(s, n, s.default_seed);
    const scenario::RunResult native_par =
        scenario::run(s, n, s.default_seed, {.threads = 4});

    EXPECT_TRUE(scalar_serial.metrics == native_serial.metrics)
        << s.name << ": serial metrics diverged across dispatch levels\n"
        << "scalar: " << scalar_serial.metrics.to_string() << "\n"
        << "native: " << native_serial.metrics.to_string();
    EXPECT_EQ(scalar_serial.digest, native_serial.digest)
        << s.name << ": serial per-node results diverged across dispatch";
    EXPECT_TRUE(scalar_par.metrics == native_par.metrics)
        << s.name << ": 4-thread metrics diverged across dispatch levels\n"
        << "scalar: " << scalar_par.metrics.to_string() << "\n"
        << "native: " << native_par.metrics.to_string();
    EXPECT_EQ(scalar_par.digest, native_par.digest)
        << s.name << ": 4-thread per-node results diverged across dispatch";
    // And the two levels agree with each other across schedulers too.
    EXPECT_EQ(scalar_serial.digest, scalar_par.digest) << s.name;
  }
}

// --- per-node state equivalence ------------------------------------------
//
// Digest equality could in principle mask compensating differences; these
// compare raw per-node outputs field by field.

TEST(SchedulerEquivalence, MstPerNodeEdgesIdentical) {
  for (std::uint64_t seed : {3u, 11u, 42u}) {
    const Graph g = random_connected(96, 192, seed);
    const auto factory = [](const sim::LocalView& v) {
      return std::make_unique<MstProcess>(v);
    };
    sim::Engine serial(g, factory, seed);
    serial.run(200'000'000);
    for (unsigned threads : kThreadCounts) {
      sim::Engine parallel(g, factory, seed, sim::make_scheduler(threads));
      parallel.run(200'000'000);
      EXPECT_TRUE(serial.metrics() == parallel.metrics()) << threads;
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        const auto& a = static_cast<const MstProcess&>(serial.process(v));
        const auto& b = static_cast<const MstProcess&>(parallel.process(v));
        EXPECT_EQ(a.mst_edges(), b.mst_edges()) << "node " << v;
        EXPECT_EQ(a.phases_used(), b.phases_used()) << "node " << v;
      }
    }
  }
}

template <typename Process, typename Config>
void expect_partition_equivalent(const Config& config, std::uint64_t seed) {
  const Graph g = random_connected(80, 160, seed);
  const auto factory = [&config](const sim::LocalView& v) {
    return std::make_unique<Process>(v, config);
  };
  sim::Engine serial(g, factory, seed);
  serial.run(200'000'000);
  for (unsigned threads : kThreadCounts) {
    sim::Engine parallel(g, factory, seed, sim::make_scheduler(threads));
    parallel.run(200'000'000);
    EXPECT_TRUE(serial.metrics() == parallel.metrics()) << threads;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const auto& a = dynamic_cast<const FragmentState&>(serial.process(v));
      const auto& b = dynamic_cast<const FragmentState&>(parallel.process(v));
      EXPECT_EQ(a.fragment_id(), b.fragment_id()) << "node " << v;
      EXPECT_EQ(a.tree_parent(), b.tree_parent()) << "node " << v;
      EXPECT_EQ(a.tree_parent_edge(), b.tree_parent_edge()) << "node " << v;
    }
  }
}

TEST(SchedulerEquivalence, PartitionDetPerNodeStateIdentical) {
  expect_partition_equivalent<PartitionDetProcess>(PartitionDetConfig{}, 5);
}

TEST(SchedulerEquivalence, PartitionRandPerNodeStateIdentical) {
  // The randomized partition consumes per-node RNG streams heavily; identical
  // results across schedulers prove streams are never shared or reordered.
  expect_partition_equivalent<PartitionRandProcess>(PartitionRandConfig{}, 5);
}

// --- asynchronous engine equivalence --------------------------------------
//
// The AsyncEngine's slot-phase execution (delivery sub-rounds -> channel
// resolve -> on_slot fan-out, all staged per shard and merged in ascending
// shard order) must make parallel asynchronous runs bit-identical to serial
// ones.  Every channel-free scenario runs through the busy-tone synchronizer
// under both schedulers at 2/4/8 threads.

TEST(SchedulerEquivalence, AsyncScenariosMatchSerialAcrossThreadCounts) {
  scenario::register_builtin();
  int async_capable = 0;
  for (const scenario::Scenario& s : scenario::Registry::instance().all()) {
    if (!s.channel_free) continue;
    ++async_capable;
    const NodeId n = s.sweep_n.front();
    const scenario::RunResult serial = scenario::run(
        s, n, s.default_seed, {.engine = scenario::EngineKind::kAsync});
    ASSERT_TRUE(serial.completed) << s.name;
    for (unsigned threads : kThreadCounts) {
      const scenario::RunResult parallel =
          scenario::run(s, n, s.default_seed,
                        {.engine = scenario::EngineKind::kAsync,
                         .threads = threads});
      EXPECT_TRUE(parallel.completed) << s.name;
      EXPECT_TRUE(serial.metrics == parallel.metrics)
          << s.name << " async with " << threads
          << " threads: metrics diverged\n"
          << "serial:   " << serial.metrics.to_string() << "\n"
          << "parallel: " << parallel.metrics.to_string();
      EXPECT_EQ(serial.digest, parallel.digest)
          << s.name << " async with " << threads
          << " threads: per-node results diverged";
    }
  }
  // The registry must keep at least three async-capable workloads — one of
  // them under a non-trivial (unslotted) discipline, so the async engine's
  // discipline path is exercised here too.
  EXPECT_GE(async_capable, 3);
}

// Golden pinned-seed traces captured from the PRE-refactor AsyncEngine (the
// serial global-event-queue implementation this slot-phase policy replaced).
// They hold the refactor to the original observable behavior — slot counts,
// message counts, per-outcome channel slots, pulses, and per-node results —
// under every scheduler.  (Synchronizer-driven workloads like these also
// keep their per-node traces: acks, the only intra-slot cascades, carry no
// payload and draw no randomness, so the sub-round cascade order — the one
// deliberate semantic refinement over the old global queue, see
// sim/async_engine.hpp — cannot surface in them.)
struct AsyncGolden {
  std::uint64_t rounds, p2p, idle, success, collision, pulses;
  sim::Word result;
};

void expect_async_golden(const Graph& g, SemigroupOp op, sim::Word input_base,
                         std::uint64_t seed, std::uint32_t delay,
                         const AsyncGolden& want) {
  P2pGlobalConfig config;
  config.op = op;
  auto factory = [&](const sim::LocalView& v) -> std::unique_ptr<sim::Process> {
    return std::make_unique<P2pGlobalProcess>(
        v, config, static_cast<sim::Word>(v.self) + input_base);
  };
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    sim::AsyncEngine engine(g, synchronize(factory), seed, delay,
                            sim::make_scheduler(threads));
    const Metrics m = engine.run(10'000'000);
    ASSERT_EQ(engine.status(), sim::AsyncEngine::RunStatus::kCompleted);
    EXPECT_EQ(m.rounds, want.rounds) << threads << " threads";
    EXPECT_EQ(m.p2p_messages, want.p2p) << threads << " threads";
    EXPECT_EQ(m.slots_idle, want.idle) << threads << " threads";
    EXPECT_EQ(m.slots_success, want.success) << threads << " threads";
    EXPECT_EQ(m.slots_collision, want.collision) << threads << " threads";
    const auto& wrapper =
        static_cast<const SynchronizerProcess&>(engine.process(0));
    EXPECT_EQ(wrapper.pulses(), want.pulses) << threads << " threads";
    EXPECT_EQ(static_cast<const P2pGlobalProcess&>(wrapper.inner()).result(),
              want.result)
        << threads << " threads";
  }
}

TEST(SchedulerEquivalence, AsyncGoldenTraceMatchesPreRefactorSerialRun) {
  // grid(6,6,2), sum of v+1, seed 5, delay <= 1 slot.
  expect_async_golden(grid(6, 6, 2), SemigroupOp::kSum, 1, 5, 1,
                      AsyncGolden{174, 1390, 114, 11, 49, 114, 666});
  // random_connected(40,50,3), min of v+7, seed 11, delay <= 3 slots.
  expect_async_golden(random_connected(40, 50, 3), SemigroupOp::kMin, 7, 11, 3,
                      AsyncGolden{206, 1376, 126, 12, 68, 126, 7});
}

// Direct AsyncProcess equivalence with intra-slot cascades: a relay chain in
// which on_message immediately forwards, so messages cascade inside single
// slots and exercise the delivery sub-round fixed point under sharding.
class AsyncRelay final : public sim::AsyncProcess {
 public:
  explicit AsyncRelay(const sim::LocalView& view) : view_(view) {}

  void start(sim::AsyncContext& ctx) override {
    if (view_.self == 0) {
      for (const sim::Neighbor& nb : view_.links()) {
        ctx.send(nb.edge, sim::Packet(1, {8}));
      }
    }
  }

  void on_message(const sim::Received& msg, sim::AsyncContext& ctx) override {
    trace_.push_back(static_cast<NodeId>(msg.from));
    const sim::Word hops = msg.packet()[0];
    if (hops > 0) {
      for (const sim::Neighbor& nb : view_.links()) {
        if (nb.to != msg.from) ctx.send(nb.edge, sim::Packet(1, {hops - 1}));
      }
    }
    done_ = true;
  }

  void on_slot(const sim::SlotObservation&, sim::AsyncContext&) override {}

  bool finished() const override { return view_.self != 0 || done_; }

  const sim::LocalView& view_;
  std::vector<NodeId> trace_;
  bool done_ = false;
};

TEST(SchedulerEquivalence, AsyncCascadesBitIdenticalAcrossSchedulers) {
  const Graph g = random_connected(48, 96, 13);
  const auto factory = [](const sim::LocalView& v) {
    return std::make_unique<AsyncRelay>(v);
  };
  sim::AsyncEngine serial(g, factory, 13, 2);
  const Metrics sm = serial.run(100'000);
  ASSERT_EQ(serial.status(), sim::AsyncEngine::RunStatus::kCompleted);
  for (unsigned threads : kThreadCounts) {
    sim::AsyncEngine parallel(g, factory, 13, 2, sim::make_scheduler(threads));
    const Metrics pm = parallel.run(100'000);
    EXPECT_TRUE(sm == pm) << threads << " threads";
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const auto& a = static_cast<const AsyncRelay&>(serial.process(v));
      const auto& b = static_cast<const AsyncRelay&>(parallel.process(v));
      // Same senders in the same per-node delivery order, message by message.
      EXPECT_EQ(a.trace_, b.trace_) << "node " << v << ", " << threads;
    }
  }
}

// --- delivery-order microtest --------------------------------------------

/// Every node sends its id to node 0 in round 0; node 0 records its inbox.
class FanInProcess final : public sim::Process {
 public:
  explicit FanInProcess(const sim::LocalView& view) : view_(view) {}

  void round(sim::NodeContext& ctx) override {
    if (ctx.round() == 0 && view_.self != 0) {
      // On a complete graph some link reaches node 0.
      for (const sim::Neighbor& nb : view_.links()) {
        if (nb.to == 0) {
          ctx.send(nb.edge, sim::Packet(1, {sim::Word{view_.self}}));
          break;
        }
      }
    }
    for (const sim::Received& r : ctx.inbox()) {
      senders_.push_back(r.from);
    }
    done_ = ctx.round() >= 1;
  }

  bool finished() const override { return done_; }

  const sim::LocalView& view_;
  std::vector<NodeId> senders_;
  bool done_ = false;
};

TEST(SchedulerEquivalence, InboxOrderIsAscendingSenderOrderEverywhere) {
  const Graph g = complete(17, 3);
  const auto factory = [](const sim::LocalView& v) {
    return std::make_unique<FanInProcess>(v);
  };
  std::vector<NodeId> expected;
  for (NodeId v = 1; v < g.num_nodes(); ++v) expected.push_back(v);

  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    sim::Engine engine(g, factory, 3, sim::make_scheduler(threads));
    engine.run(10);
    const auto& p0 = static_cast<const FanInProcess&>(engine.process(0));
    EXPECT_EQ(p0.senders_, expected) << threads << " threads";
  }
}

TEST(SchedulerEquivalence, ShardRangesPartitionTheNodeSet) {
  for (unsigned shards : {1u, 2u, 3u, 8u, 16u}) {
    for (NodeId n : {0u, 1u, 5u, 16u, 97u}) {
      NodeId covered = 0;
      NodeId prev_last = 0;
      for (unsigned s = 0; s < shards; ++s) {
        const auto [first, last] = sim::Scheduler::shard_range(n, s, shards);
        EXPECT_EQ(first, prev_last);
        EXPECT_LE(first, last);
        covered += last - first;
        prev_last = last;
      }
      EXPECT_EQ(prev_last, n);
      EXPECT_EQ(covered, n);
    }
  }
}

}  // namespace
}  // namespace mmn
