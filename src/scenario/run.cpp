// scenario::run — the one run path.  Every cell (engine x threads x ranks x
// load x faults) goes through the same steps: validate, build the full
// graph or this rank's window, draw the fault plan, step one engine over
// the window (step_window), and assemble the result from the per-window
// tallies.  A single-process run is one rank of one over a loopback
// transport; K ranks fork K - 1 children (sim::shard_comm::run_ranks) and
// rank 0 gathers the others' tallies; recovery's phase B is one more
// step_window call on the compacted graph.
#include <algorithm>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

#include "core/synchronizer.hpp"
#include "scenario/registry.hpp"
#include "sim/rank.hpp"
#include "sim/scheduler.hpp"
#include "sim/shard_comm.hpp"
#include "support/check.hpp"

namespace mmn::scenario {
namespace {

using sim::shard_comm::Transport;

/// One window's share of a run, exchanged between ranks as raw bytes.  The
/// slot/round counters and fault event counters are replicas on every
/// rank; p2p messages, fault drops, orphans, the latency block and the
/// cross-shard counters are window sums; the digest is the chain's
/// accumulator after this window (meaningful in the last rank's record);
/// completion is replicated (rank 0 cross-checks it).
struct Tally {
  Metrics metrics;
  sim::FaultStats faults;
  sim::LatencyBlock latency;
  std::uint64_t digest = 0;
  std::uint64_t xshard_msgs = 0;
  std::uint64_t boundary_edges = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t completed = 0;
};
static_assert(std::is_trivially_copyable_v<Tally>,
              "Tally is exchanged as raw bytes");

void swap_bytes(Transport& t, unsigned peer, const void* out,
                std::size_t out_bytes, void* in, std::size_t in_bytes) {
  std::vector<std::uint8_t> got;
  t.exchange(peer, static_cast<const std::uint8_t*>(out), out_bytes, got);
  MMN_REQUIRE(got.size() == in_bytes,
              "rank control exchange: unexpected frame size");
  if (in_bytes > 0) std::memcpy(in, got.data(), in_bytes);
}

const OpenLoopStats& station(const NodeResults& nodes, NodeId v) {
  if (nodes.at) return dynamic_cast<const OpenLoopStats&>(nodes.at(v));
  return dynamic_cast<const OpenLoopStats&>(nodes.at_async(v));
}

/// Runs an engine built over this rank's window to completion or the cap,
/// then chains the digest through the ranks below and above and tallies
/// the window.  `digest_capped` = false leaves a capped run undigested
/// (the synchronizer's inner processes are mid-protocol then).
template <typename Eng>
Tally finish_window(const Scenario& s, Eng& eng, const sim::FaultPlan& plan,
                    NodeResults nodes, bool digest_capped, Transport& t) {
  if (!plan.empty()) eng.install_faults(plan);
  eng.run(s.max_rounds);
  Tally tally;
  tally.completed = eng.status() == sim::RunStatus::kCompleted ? 1 : 0;
  tally.metrics = eng.metrics();
  tally.latency = eng.latency().merged();

  // Digest chain, rank-major: rank r folds its window starting from rank
  // r-1's partial accumulator, reproducing the serial node-major fold.
  if (s.digest && (digest_capped || tally.completed != 0)) {
    std::uint64_t none = 0;
    if (t.rank() > 0) {
      swap_bytes(t, t.rank() - 1, &none, sizeof(none), &nodes.h0,
                 sizeof(nodes.h0));
    }
    tally.digest = s.digest(nodes);
    if (t.rank() + 1 < t.ranks()) {
      swap_bytes(t, t.rank() + 1, &tally.digest, sizeof(tally.digest), &none,
                 sizeof(none));
    }
  }
  tally.wire_bytes = t.bytes_out();

  if (eng.faults() != nullptr) {
    tally.faults = eng.faults()->stats();
    if (s.open_loop() != nullptr) {
      // Backlog sitting in a station still crashed at run end is orphaned:
      // those packets ride neither the livelock books nor the goodput.
      const EpochOverlay& overlay = eng.faults()->overlay();
      for (NodeId v = nodes.begin; v < nodes.begin + nodes.n; ++v) {
        if (overlay.node_alive(v)) continue;
        for (std::size_t c = 0; c < sim::kNumQosClasses; ++c) {
          tally.faults.orphaned_pkts +=
              station(nodes, v).backlog(static_cast<sim::QosClass>(c));
        }
      }
    }
  }
  return tally;
}

/// The stepping body every run goes through: builds the engine `c` names
/// over this rank's window of `g` (all of it when K = 1), runs it, and
/// tallies the window.
Tally step_window(const Scenario& s, const Graph& g, const sim::FaultPlan& plan,
                  const RunConfig& c, std::uint64_t seed, Transport& t) {
  const double offered = c.load > 0.0 ? c.load : s.default_load;
  const auto [lo, hi] =
      sim::Scheduler::shard_range(g.num_nodes(), t.rank(), t.ranks());
  // The run seed also feeds the discipline's own lottery stream (the
  // stabilized-Aloha kinds; the others ignore it — see make_discipline).
  auto discipline =
      sim::make_discipline(s.discipline, sim::UnslottedConfig{}, seed);
  auto scheduler = sim::make_scheduler(c.threads);
  const OpenLoopConfig* stations = s.open_loop();
  if (c.engine == EngineKind::kSync) {
    sim::ProcessFactory factory;
    if (stations != nullptr) {
      OpenLoopConfig at = *stations;
      at.offered = offered;
      factory = make_open_loop_factory(at);
    } else {
      factory = s.make_factory(g);
    }
    sim::Engine eng(g, sim::RankSpec{t.rank(), t.ranks(), lo, hi}, factory,
                    seed, t, std::move(discipline), std::move(scheduler));
    Tally tally = finish_window(
        s, eng, plan,
        NodeResults{hi - lo,
                    [&eng](NodeId v) -> const sim::Process& {
                      return eng.process(v);
                    },
                    nullptr, lo},
        true, t);
    tally.xshard_msgs = eng.xshard_msgs();
    tally.boundary_edges = eng.boundary_edges();
    return tally;
  }
  if (stations != nullptr) {
    // Native asynchronous stations: no synchronizer in between.
    sim::AsyncEngine eng(g, s.make_async_load_factory(g, offered), seed,
                         s.async_max_delay_slots, std::move(scheduler),
                         std::move(discipline));
    return finish_window(
        s, eng, plan,
        NodeResults{hi - lo, nullptr,
                    [&eng](NodeId v) -> const sim::AsyncProcess& {
                      return eng.process(v);
                    }},
        true, t);
  }
  sim::AsyncEngine eng(g, synchronize(s.make_factory(g)), seed,
                       s.async_max_delay_slots, std::move(scheduler),
                       std::move(discipline));
  return finish_window(
      s, eng, plan,
      NodeResults{hi - lo,
                  [&eng](NodeId v) -> const sim::Process& {
                    return static_cast<const SynchronizerProcess&>(
                               eng.process(v))
                        .inner();
                  }},
      false, t);
}

/// Rank 0 returns the sum of every rank's tally (K = 1: its own); the other
/// ranks send theirs to rank 0 and return nothing useful.
Tally gather(const Tally& mine, Transport& t) {
  if (t.rank() != 0) {
    swap_bytes(t, 0, &mine, sizeof(mine), nullptr, 0);
    return mine;
  }
  Tally total = mine;
  for (unsigned r = 1; r < t.ranks(); ++r) {
    Tally peer;
    swap_bytes(t, r, nullptr, 0, &peer, sizeof(peer));
    MMN_REQUIRE(peer.completed == mine.completed,
                "ranks disagree on termination — determinism broken");
    total.metrics.p2p_messages += peer.metrics.p2p_messages;
    total.faults.drops += peer.faults.drops;
    total.faults.orphaned_pkts += peer.faults.orphaned_pkts;
    total.latency.merge(peer.latency);
    total.xshard_msgs += peer.xshard_msgs;
    total.boundary_edges += peer.boundary_edges;
    total.wire_bytes += peer.wire_bytes;
    total.digest = peer.digest;  // the chain ends on the last rank
  }
  return total;
}

RunResult assemble(const Scenario& s, const Tally& total, NodeId realized_n,
                   bool faulted) {
  RunResult r;
  r.realized_n = realized_n;
  r.completed = total.completed != 0;
  r.status = r.completed ? sim::RunStatus::kCompleted
                         : sim::RunStatus::kSlotCapReached;
  r.metrics = total.metrics;
  r.digest = total.digest;
  if (faulted) {
    r.faults = total.faults;
    // The fault trajectory is part of the run's identity: fold it so the
    // equivalence suites cover drop accounting too.
    if (s.digest) r.digest = digest_mix(r.digest, r.faults.digest_word());
  }
  std::uint64_t arrivals = 0;
  std::uint64_t delivered = 0;
  for (std::size_t c = 0; c < sim::kNumQosClasses; ++c) {
    r.qos[c] = total.latency.summary(static_cast<sim::QosClass>(c));
    arrivals += r.qos[c].arrivals;
    delivered += r.qos[c].delivered;
  }
  if (arrivals > 0) {
    r.delivered_ratio =
        static_cast<double>(delivered) / static_cast<double>(arrivals);
  }
  // Every cross-shard edge is counted by both owning windows; a single
  // rank has no wire and no frontier, so its section stays zero.
  r.shard = ShardStats{total.xshard_msgs, total.boundary_edges / 2,
                       total.wire_bytes};
  return r;
}

/// Two-phase recovery (scenario::Recovery).  Phase A steps the protocol
/// serially into the fault: the round where the kills land runs with
/// in-flight traffic hitting dead links (dropped and counted), and one
/// round beyond would start violating the protocol's own invariants — the
/// paper's deterministic protocols assume reliable links, so the recovery
/// mechanism is the epoch rebuild, not in-protocol loss tolerance.  Phase B
/// is the ordinary stepping body on the compacted graph.
RunResult run_recovery(const Scenario& s, const Graph& g,
                       const sim::FaultPlan& plan, const RunConfig& c,
                       std::uint64_t seed, Transport& t) {
  const std::uint64_t epoch = std::get<Recovery>(s.workload).epoch_slots;
  std::uint64_t last_fault = 0;
  for (const sim::FaultEvent& e : plan.events()) {
    last_fault = std::max(last_fault, e.slot);
  }
  MMN_REQUIRE(epoch > last_fault,
              "the epoch boundary must fall after the last fault event");
  sim::Engine wounded(
      g, s.make_factory(g), seed, nullptr,
      sim::make_discipline(s.discipline, sim::UnslottedConfig{}, seed));
  wounded.install_faults(plan);
  wounded.step(last_fault + 1);
  EpochOverlay& overlay = wounded.faults()->overlay();
  const EpochOverlay::Compaction compaction = overlay.compact();
  RunResult r = assemble(
      s, step_window(s, compaction.graph, {}, c, seed, t), g.num_nodes(),
      false);
  r.faults = wounded.faults()->stats();
  const std::uint64_t first = plan.first_fault_slot();
  r.recovery_slots = (epoch > first ? epoch - first : 0) + r.metrics.rounds;
  r.faults.recovery_slots = r.recovery_slots;
  if (s.digest) r.digest = digest_mix(r.digest, overlay.digest_word());
  return r;
}

/// Rejects a cell the scenario does not admit, before anything is built or
/// forked (run_ranks checks the rank count itself, also before forking).
void check_cell(const Scenario& s, const RunConfig& c, bool fault_capable) {
  MMN_REQUIRE(c.threads >= 1 && c.threads <= 256,
              "threads must be in [1, 256]");
  MMN_REQUIRE(c.load == 0.0 || s.open_loop() != nullptr,
              "scenario is not load-capable (not an open-loop workload)");
  MMN_REQUIRE(c.faults == 0 || s.make_fault_plan != nullptr,
              "scenario is not fault-capable (no make_fault_plan)");
  if (s.recovery()) {
    MMN_REQUIRE(std::get<Recovery>(s.workload).epoch_slots > 0,
                "fault-recovery scenarios need an epoch boundary");
    MMN_REQUIRE(c.engine == EngineKind::kSync,
                "fault-recovery scenarios run on the synchronous engine");
    MMN_REQUIRE(c.ranks == 1,
                "fault-recovery scenarios (two-phase epoch rebuild) do not "
                "run sharded");
  }
  if (c.engine == EngineKind::kSync) return;
  MMN_REQUIRE(c.ranks == 1, "the asynchronous engine does not run sharded");
  if (s.open_loop() != nullptr) return;  // native async stations
  MMN_REQUIRE(!fault_capable,
              "fault injection is not supported on the synchronizer path");
  MMN_REQUIRE(s.channel_free,
              "scenario uses the channel and cannot run under the "
              "synchronizer on the asynchronous engine");
  MMN_REQUIRE(
      !sim::make_discipline(s.discipline, sim::UnslottedConfig{}, 0)->defers(),
      "a deferring discipline would falsify the synchronizer's idle-slot "
      "pulses on the asynchronous engine");
}

}  // namespace

RunResult run(const Scenario& s, NodeId n, std::uint64_t seed,
              const RunConfig& c) {
  const std::uint32_t intensity = c.faults > 0 ? c.faults : s.default_faults;
  const bool fault_capable = intensity > 0 && s.make_fault_plan != nullptr;
  check_cell(s, c, fault_capable);

  RunResult result;
  sim::shard_comm::run_ranks(c.ranks, [&](Transport& t) {
    // A single rank steps the full build.  Each of K ranks materializes
    // only its window of the CSR arena: the windowed build replays the full
    // generator and weight-permutation streams, so owned rows are
    // bit-identical to the full build's.
    const NodeId size = topology_round_n(s.topology, n);
    const auto [lo, hi] = sim::Scheduler::shard_range(size, t.rank(), t.ranks());
    const Graph g = t.ranks() == 1
                        ? make_scenario_graph(s, n, seed)
                        : build_topology_window(
                              TopologySpec{s.topology, size, seed},
                              GraphWindow{lo, hi});
    sim::FaultPlan plan;
    if (fault_capable) {
      // Plans are drawn from the full topology (global edge-id lottery).  A
      // rank builds it transiently — the plan is a pure function of (graph,
      // intensity, seed), so all replicas agree — and drops it before the
      // run so the steady-state footprint stays the window's.
      plan = t.ranks() == 1
                 ? s.make_fault_plan(g, intensity, seed)
                 : s.make_fault_plan(make_scenario_graph(s, n, seed),
                                     intensity, seed);
    }
    if (s.recovery() && !plan.empty()) {
      result = run_recovery(s, g, plan, c, seed, t);
      return;
    }
    const Tally total = gather(step_window(s, g, plan, c, seed, t), t);
    if (t.rank() == 0) {
      result = assemble(s, total, g.num_nodes(), !plan.empty());
    }
  });
  return result;
}

}  // namespace mmn::scenario
