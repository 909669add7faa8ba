// Zero-allocation steady state: after a warm-up window every per-round
// structure — the arena's header buffers, the recycled packet pools, the
// slot-bucket ring, the shard staging vectors, the discipline's slot state —
// sits at its high-water-mark capacity, so a steady-traffic run performs no
// heap allocation per round.  The traffic alternates per-link sends and
// broadcast() each round/slot, so the guarantee covers the interned-payload
// path (one pooled payload behind deg(v) headers, refcounted on the async
// side) as well as the copying path.  This file instruments the global
// operator new
// (it links into its own test binary; the counter covers every allocation in
// the process, from any thread) and asserts the count stays zero across a
// post-warm-up window on both engines, serial and 4-thread, and on the two
// ranks of a sharded Engine run — each rank process counts its own
// allocations, so the window covers the per-round partition, frame
// encode/decode and socket swap too.  Rounds in which some nodes sleep
// (the synchronous engine's active set), and the global stage's rounds, in
// which the engine folds the public state and most nodes doze, are held to
// the same bound.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <memory>
#include <new>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "core/openloop.hpp"
#include "graph/generators.hpp"
#include "scenario/registry.hpp"
#include "sim/async_engine.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "sim/rank.hpp"
#include "sim/scheduler.hpp"
#include "sim/shard_comm.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

void note_alloc() {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
}

void* checked_alloc(std::size_t size) {
  note_alloc();
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* checked_aligned_alloc(std::size_t size, std::size_t align) {
  note_alloc();
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                     size ? size : 1) == 0) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

// Every replaceable form the library can reach: vectors of the
// cache-line-aligned ShardBuffer go through the align_val_t overloads.
void* operator new(std::size_t size) { return checked_alloc(size); }
void* operator new[](std::size_t size) { return checked_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return checked_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return checked_aligned_alloc(size, static_cast<std::size_t>(align));
}
// libstdc++'s temporary buffers (std::stable_sort) take the nothrow form and
// free through the plain operator delete, so it must come from malloc too.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  note_alloc();
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  note_alloc();
  return std::malloc(size ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace mmn::sim {
namespace {

constexpr std::uint64_t kWarmupRounds = 64;
constexpr std::uint64_t kMeasuredRounds = 256;

/// Steady synchronous traffic: every node messages all neighbors every
/// round — alternating per-link sends and broadcast() by round parity, so
/// the zero-allocation window covers both staging paths (deg payload
/// copies vs one interned payload) — every third node contends for the
/// channel, and the inbox is read word by word.  Never finishes — the test
/// drives it with step().
class ChatterProcess final : public Process {
 public:
  explicit ChatterProcess(const LocalView& view) : view_(view) {}

  void round(NodeContext& ctx) override {
    const Packet p(1, {static_cast<Word>(ctx.round() & 0xFF),
                       static_cast<Word>(view_.self)});
    if (ctx.round() % 2 == 0) {
      ctx.broadcast(p);
    } else {
      for (const Neighbor& nb : view_.links()) ctx.send(nb.edge, p);
    }
    if (view_.self % 3 == 0) {
      ctx.channel_write(Packet(2, {static_cast<Word>(view_.self)}));
    }
    for (const Received& r : ctx.inbox()) sum_ += r.packet()[0];
  }

  bool finished() const override { return false; }

 private:
  const LocalView& view_;
  Word sum_ = 0;
};

/// Steady synchronous traffic through the active set: even nodes chatter
/// like ChatterProcess on two rounds of three; odd nodes only read their
/// inbox and ask to sleep.  Most rounds therefore skip sleeping nodes, a
/// different set of sleepers wakes by message every round, and every
/// eighth round nobody writes the channel, so the idle slot wakes everyone.
/// Counts its own handler calls, so the test can see that nodes slept.
class DozingProcess final : public Process {
 public:
  explicit DozingProcess(const LocalView& view) : view_(view) {}

  void round(NodeContext& ctx) override {
    ++calls_;
    for (const Received& r : ctx.inbox()) sum_ += r.packet()[0];
    if (view_.self % 2 == 1) {
      ctx.sleep();
      return;
    }
    const Packet p(1, {static_cast<Word>(ctx.round() & 0xFF)});
    if ((ctx.round() + view_.self) % 3 == 0) {
      ctx.broadcast(p);
    } else if ((ctx.round() + view_.self) % 3 == 1) {
      for (const Neighbor& nb : view_.links()) ctx.send(nb.edge, p);
    }
    if (ctx.round() % 8 != 7 && view_.self % 3 == 0) {
      ctx.channel_write(Packet(2, {static_cast<Word>(view_.self)}));
    }
  }

  bool finished() const override { return false; }

  std::uint64_t calls_ = 0;

 private:
  const LocalView& view_;
  Word sum_ = 0;
};

/// Handler calls of an engine's dozing processes (global ids [lo, hi)).
std::uint64_t dozing_calls(const Engine& engine, NodeId lo, NodeId hi) {
  std::uint64_t calls = 0;
  for (NodeId v = lo; v < hi; ++v) {
    calls += static_cast<const DozingProcess&>(engine.process(v)).calls_;
  }
  return calls;
}

/// Steady asynchronous traffic: every slot boundary re-sends to all
/// neighbors — alternating broadcast() and per-link sends by slot parity,
/// so the window covers both the interned (push + push_shared refcounted
/// pool slot) and the copying commit path — and contends for the channel;
/// deliveries are read and fuel no further cascades (the per-slot volume
/// stays constant).
class AsyncChatterProcess final : public AsyncProcess {
 public:
  explicit AsyncChatterProcess(const LocalView& view) : view_(view) {}

  void start(AsyncContext& ctx) override { blast(ctx); }

  void on_message(const Received& msg, AsyncContext&) override {
    sum_ += msg.packet()[0];
  }

  void on_slot(const SlotObservation&, AsyncContext& ctx) override {
    blast(ctx);
    if (view_.self % 3 == 0) {
      ctx.channel_write(Packet(2, {static_cast<Word>(view_.self)}));
    }
  }

  bool finished() const override { return false; }

 private:
  void blast(AsyncContext& ctx) {
    const Packet p(1, {static_cast<Word>(view_.self)});
    if (ctx.slot_index() % 2 == 0) {
      ctx.broadcast(p);
    } else {
      for (const Neighbor& nb : view_.links()) ctx.send(nb.edge, p);
    }
  }

  const LocalView& view_;
  Word sum_ = 0;
};

std::uint64_t measure(const std::function<void(std::uint64_t)>& run_rounds) {
  run_rounds(kWarmupRounds);
  g_allocs.store(0);
  g_counting.store(true);
  run_rounds(kMeasuredRounds);
  g_counting.store(false);
  return g_allocs.load();
}

TEST(SteadyStateAllocation, SyncEngineAllocatesNothingPerRound) {
  for (unsigned threads : {1u, 4u}) {
    const Graph g = random_connected(96, 192, 11);
    Engine engine(g, [](const LocalView& v) {
      return std::make_unique<ChatterProcess>(v);
    }, 11, threads <= 1 ? nullptr : make_scheduler(threads));
    const std::uint64_t allocs =
        measure([&engine](std::uint64_t rounds) { engine.step(rounds); });
    EXPECT_EQ(allocs, 0u)
        << allocs << " heap allocations in " << kMeasuredRounds
        << " steady-state rounds with " << threads << " thread(s)";
  }
}

TEST(SteadyStateAllocation, TwoRankRoundsAllocateNothing) {
  // The chatter crosses the cut every round (a random graph's windows share
  // many edges), with broadcast runs and channel writes on the wire.  A
  // rank that allocates throws inside its own process; run_ranks turns a
  // child's failure into an exception in the parent.
  const TopologySpec spec{TopoKind::kRandom, 96, 11};
  for (unsigned threads : {1u, 2u}) {
    try {
      shard_comm::run_ranks(2, [&](shard_comm::Transport& t) {
        const auto [lo, hi] = Scheduler::shard_range(96, t.rank(), 2);
        const Graph g = build_topology_window(spec, GraphWindow{lo, hi});
        Engine engine(g, RankSpec{t.rank(), 2, lo, hi},
                      [](const LocalView& v) {
                        return std::make_unique<ChatterProcess>(v);
                      },
                      11, t, nullptr,
                      threads <= 1 ? nullptr : make_scheduler(threads));
        const std::uint64_t allocs =
            measure([&engine](std::uint64_t rounds) { engine.step(rounds); });
        MMN_REQUIRE(engine.xshard_msgs() > 0, "no traffic crossed the cut");
        MMN_REQUIRE(allocs == 0,
                    "rank " + std::to_string(t.rank()) + ": " +
                        std::to_string(allocs) + " heap allocations in " +
                        std::to_string(kMeasuredRounds) + " rounds with " +
                        std::to_string(threads) + " thread(s)");
      });
    } catch (const std::exception& e) {
      ADD_FAILURE() << e.what();
    }
  }
}

TEST(SteadyStateAllocation, ActiveSetRoundsAllocateNothing) {
  constexpr std::uint64_t kRounds = kWarmupRounds + kMeasuredRounds;
  for (unsigned threads : {1u, 4u}) {
    const Graph g = random_connected(96, 192, 11);
    Engine engine(g, [](const LocalView& v) {
      return std::make_unique<DozingProcess>(v);
    }, 11, threads <= 1 ? nullptr : make_scheduler(threads));
    const std::uint64_t allocs =
        measure([&engine](std::uint64_t rounds) { engine.step(rounds); });
    EXPECT_EQ(allocs, 0u)
        << allocs << " heap allocations in " << kMeasuredRounds
        << " active-set rounds with " << threads << " thread(s)";
    EXPECT_LT(dozing_calls(engine, 0, 96), 96 * kRounds) << "nobody slept";
  }
}

TEST(SteadyStateAllocation, TwoRankActiveSetRoundsAllocateNothing) {
  // Sleepers on one rank are woken by headers from the other, so the
  // window covers planning from ingress buffers too.
  constexpr std::uint64_t kRounds = kWarmupRounds + kMeasuredRounds;
  const TopologySpec spec{TopoKind::kRandom, 96, 11};
  for (unsigned threads : {1u, 2u}) {
    try {
      shard_comm::run_ranks(2, [&](shard_comm::Transport& t) {
        const auto [lo, hi] = Scheduler::shard_range(96, t.rank(), 2);
        const Graph g = build_topology_window(spec, GraphWindow{lo, hi});
        Engine engine(g, RankSpec{t.rank(), 2, lo, hi},
                      [](const LocalView& v) {
                        return std::make_unique<DozingProcess>(v);
                      },
                      11, t, nullptr,
                      threads <= 1 ? nullptr : make_scheduler(threads));
        const std::uint64_t allocs =
            measure([&engine](std::uint64_t rounds) { engine.step(rounds); });
        MMN_REQUIRE(engine.xshard_msgs() > 0, "no traffic crossed the cut");
        MMN_REQUIRE(dozing_calls(engine, lo, hi) < (hi - lo) * kRounds,
                    "nobody slept");
        MMN_REQUIRE(allocs == 0,
                    "rank " + std::to_string(t.rank()) + ": " +
                        std::to_string(allocs) + " heap allocations in " +
                        std::to_string(kMeasuredRounds) +
                        " active-set rounds with " + std::to_string(threads) +
                        " thread(s)");
      });
    } catch (const std::exception& e) {
      ADD_FAILURE() << e.what();
    }
  }
}

/// Forwards to a registry process and raises `dozed` once it asks to doze:
/// in global/min/rand/ring that first happens in the global stage's first
/// round, when every node has taken the engine's one public fold.
class DozeProbe final : public Process {
 public:
  DozeProbe(std::unique_ptr<Process> inner, std::atomic<bool>& dozed)
      : inner_(std::move(inner)), dozed_(&dozed) {}

  void round(NodeContext& ctx) override {
    inner_->round(ctx);
    if (ctx.doze_requested()) dozed_->store(true, std::memory_order_relaxed);
  }

  bool finished() const override { return inner_->finished(); }

 private:
  std::unique_ptr<Process> inner_;
  std::atomic<bool>* dozed_;
};

TEST(SteadyStateAllocation, ObservedStageRoundsAllocateNothing) {
  // The global stage once its fold exists: the engine folds each slot into
  // the shared resolver state, the pending roots decide through it, and
  // everyone else dozes — no round of it may allocate.
  scenario::register_builtin();
  const scenario::Scenario* s =
      scenario::Registry::instance().find("global/min/rand/ring");
  ASSERT_NE(s, nullptr);
  const Graph g = scenario::make_scenario_graph(*s, 4096, 7);
  const ProcessFactory inner = s->make_factory(g);
  for (unsigned threads : {1u, 4u}) {
    std::atomic<bool> dozed{false};
    Engine engine(g, [&](const LocalView& v) {
      return std::make_unique<DozeProbe>(inner(v), dozed);
    }, 7, threads <= 1 ? nullptr : make_scheduler(threads));
    while (!dozed.load()) {
      ASSERT_FALSE(engine.step(1)) << "finished before the global stage";
    }
    const std::uint64_t allocs =
        measure([&engine](std::uint64_t rounds) { engine.step(rounds); });
    EXPECT_EQ(allocs, 0u)
        << allocs << " heap allocations in " << kMeasuredRounds
        << " global-stage rounds with " << threads << " thread(s)";
    EXPECT_FALSE(engine.step(0)) << "the stage ended inside the window";
  }
}

TEST(SteadyStateAllocation, AsyncEngineAllocatesNothingPerSlot) {
  for (unsigned threads : {1u, 4u}) {
    const Graph g = random_connected(96, 192, 11);
    AsyncEngine engine(g, [](const LocalView& v) {
      return std::make_unique<AsyncChatterProcess>(v);
    }, 11, /*max_delay_slots=*/2,
        threads <= 1 ? nullptr : make_scheduler(threads));
    const std::uint64_t allocs =
        measure([&engine](std::uint64_t slots) { engine.step(slots); });
    EXPECT_EQ(allocs, 0u)
        << allocs << " heap allocations in " << kMeasuredRounds
        << " steady-state slots with " << threads << " thread(s)";
  }
}

/// A churn plan whose events span warmup AND measured window: link outage
/// windows cycling every 32 slots plus rate-driven station crash/recover
/// pairs.  All FaultRuntime state (overlay bitsets, the sorted event list)
/// is sized at install_faults; applying events, dropping dead-link sends,
/// stifling crashed stations, and skipping crashed nodes are all in-place
/// flips — so warmed-up churn rounds must stay at zero allocations, same
/// as fault-free steady state (epoch compaction, the one allocating fault
/// operation, only runs at explicit compact() calls, never per round).
mmn::sim::FaultPlan churn_plan(const Graph& g, std::uint64_t horizon) {
  FaultPlan plan;
  plan.add_outage_windows(/*link=*/0, /*first_down=*/8, /*down_slots=*/16,
                          /*up_slots=*/16, horizon);
  plan.merge(FaultPlan::node_churn(g, /*rate=*/0.02, /*down_slots=*/24,
                                   horizon, 11));
  return plan;
}

TEST(SteadyStateAllocation, SyncChurnRoundsAllocateNothing) {
  for (unsigned threads : {1u, 4u}) {
    const Graph g = random_connected(96, 192, 11);
    Engine engine(g, [](const LocalView& v) {
      return std::make_unique<ChatterProcess>(v);
    }, 11, threads <= 1 ? nullptr : make_scheduler(threads));
    engine.install_faults(
        churn_plan(g, kWarmupRounds + kMeasuredRounds + 64));
    const std::uint64_t allocs =
        measure([&engine](std::uint64_t rounds) { engine.step(rounds); });
    EXPECT_EQ(allocs, 0u)
        << allocs << " heap allocations in " << kMeasuredRounds
        << " churn rounds with " << threads << " thread(s)";
  }
}

TEST(SteadyStateAllocation, AsyncChurnSlotsAllocateNothing) {
  for (unsigned threads : {1u, 4u}) {
    const Graph g = random_connected(96, 192, 11);
    AsyncEngine engine(g, [](const LocalView& v) {
      return std::make_unique<AsyncChatterProcess>(v);
    }, 11, /*max_delay_slots=*/2,
        threads <= 1 ? nullptr : make_scheduler(threads));
    engine.install_faults(
        churn_plan(g, kWarmupRounds + kMeasuredRounds + 64));
    const std::uint64_t allocs =
        measure([&engine](std::uint64_t slots) { engine.step(slots); });
    EXPECT_EQ(allocs, 0u)
        << allocs << " heap allocations in " << kMeasuredRounds
        << " churn slots with " << threads << " thread(s)";
  }
}

TEST(SteadyStateAllocation, OpenLoopRecorderAllocatesNothingPerRound) {
  // The open-loop load path end to end: constant-rate arrivals, per-class
  // FIFOs, the reservation grant ring, delivery gossip, and every
  // record_latency() into the shard's LatencyBlock.  The constant source
  // is periodic and the load is under the reservation capacity, so the
  // queues and pools reach their high-water capacity during a long warmup
  // and the measured window must not allocate — pinning the LatencyRecorder
  // claim in sim/traffic.hpp on the real delivery hot path.
  constexpr std::uint64_t kOpenLoopWarmup = 2048;
  for (unsigned threads : {1u, 4u}) {
    const Graph g = build_topology(TopologySpec{TopoKind::kRing, 64, 11});
    mmn::OpenLoopConfig config;
    config.arrivals = ArrivalKind::kConstant;
    config.offered = 0.4;
    config.horizon = ~std::uint64_t{0};  // never finishes; step() drives it
    Engine engine(g, mmn::make_open_loop_factory(config), 11,
                  threads <= 1 ? nullptr : make_scheduler(threads),
                  make_discipline(DisciplineKind::kReservation,
                                  UnslottedConfig{}, 11));
    engine.step(kOpenLoopWarmup);
    g_allocs.store(0);
    g_counting.store(true);
    engine.step(kMeasuredRounds);
    g_counting.store(false);
    const std::uint64_t allocs = g_allocs.load();
    EXPECT_EQ(allocs, 0u)
        << allocs << " heap allocations in " << kMeasuredRounds
        << " steady open-loop rounds with " << threads << " thread(s)";
  }
}

}  // namespace
}  // namespace mmn::sim
