#include "scenario/rank_run.hpp"

#include <cstring>

#include "graph/generators.hpp"
#include "sim/fault.hpp"
#include "sim/rank.hpp"
#include "sim/scheduler.hpp"
#include "sim/shard_comm.hpp"
#include "support/check.hpp"

namespace mmn::scenario {
namespace {

/// Per-rank tallies gathered to rank 0 after the run: the reductions whose
/// serial counterparts are sums over all nodes, plus the digest chain's
/// final accumulator (meaningful only in rank K-1's record) and the
/// completion verdict (replicated — rank 0 cross-checks).
struct RankTally {
  std::uint64_t digest = 0;
  std::uint64_t p2p_messages = 0;
  std::uint64_t fault_drops = 0;
  std::uint64_t xshard_msgs = 0;
  std::uint64_t boundary_edges = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t completed = 0;
};
static_assert(sizeof(RankTally) == 7 * sizeof(std::uint64_t),
              "RankTally is exchanged as raw bytes");

void swap_bytes(sim::shard_comm::Transport& t, unsigned peer, const void* out,
                std::size_t out_bytes, void* in, std::size_t in_bytes,
                std::vector<std::uint8_t>& scratch) {
  t.exchange(peer, static_cast<const std::uint8_t*>(out), out_bytes, scratch);
  MMN_REQUIRE(scratch.size() == in_bytes,
              "rank control exchange: unexpected frame size");
  if (in_bytes > 0) std::memcpy(in, scratch.data(), in_bytes);
}

void run_rank(const Scenario& s, NodeId nominal, std::uint64_t seed,
              double load, std::uint32_t faults,
              sim::shard_comm::Transport& t, RunResult* out,
              ShardStats* out_stats) {
  const unsigned rank = t.rank();
  const unsigned ranks = t.ranks();
  const NodeId n = topology_round_n(s.topology, nominal);
  const auto [lo, hi] = sim::Scheduler::shard_range(n, rank, ranks);

  // Only this rank's window of the CSR arena is materialized; the windowed
  // build replays the full generator and weight-permutation streams, so
  // owned rows are bit-identical to the full build's.
  const Graph g = build_topology_window(TopologySpec{s.topology, n, seed},
                                        GraphWindow{lo, hi});

  const double offered = load > 0.0 ? load : s.default_load;
  const std::uint32_t intensity = faults > 0 ? faults : s.default_faults;
  sim::FaultPlan plan;
  if (intensity > 0 && s.make_fault_plan) {
    // Fault plans are drawn from the full topology (global edge-id lottery).
    // Build it transiently on every rank — the plan is a pure function of
    // (graph, intensity, seed), so all replicas agree — then drop it before
    // the run so the steady-state footprint stays the window's.
    const Graph full = make_scenario_graph(s, nominal, seed);
    plan = s.make_fault_plan(full, intensity, seed);
  }
  const bool faulted = !plan.empty();
  MMN_REQUIRE(!(faulted && s.fault_recovery),
              "fault-recovery scenarios (two-phase epoch rebuild) do not "
              "run sharded");

  sim::Engine eng(
      g, sim::RankSpec{rank, ranks, lo, hi},
      s.make_load_factory ? s.make_load_factory(g, offered)
                          : s.make_factory(g),
      seed, t,
      sim::make_discipline(s.discipline, sim::UnslottedConfig{}, seed));
  if (faulted) eng.install_faults(plan);
  const bool completed = eng.step(s.max_rounds);

  std::vector<std::uint8_t> scratch;

  // Digest chain, rank-major: rank r folds its window starting from rank
  // r-1's partial accumulator, reproducing the serial node-major fold.
  std::uint64_t h = 0;
  if (s.digest) {
    std::uint64_t h_prev = kDigestSeed;
    std::uint64_t dummy = 0;
    if (rank > 0) {
      swap_bytes(t, rank - 1, &dummy, sizeof(dummy), &h_prev, sizeof(h_prev),
                 scratch);
    }
    h = s.digest(NodeResults{
        hi - lo,
        [&eng](NodeId v) -> const sim::Process& { return eng.process(v); },
        nullptr, lo, h_prev});
    if (rank + 1 < ranks) {
      swap_bytes(t, rank + 1, &h, sizeof(h), &dummy, sizeof(dummy), scratch);
    }
  }

  RankTally mine;
  mine.digest = h;
  mine.p2p_messages = eng.metrics().p2p_messages;
  mine.fault_drops = faulted ? eng.faults()->stats().drops : 0;
  mine.xshard_msgs = eng.xshard_msgs();
  mine.boundary_edges = eng.boundary_edges();
  mine.wire_bytes = t.bytes_out();
  mine.completed = completed ? 1 : 0;

  if (rank != 0) {
    swap_bytes(t, 0, &mine, sizeof(mine), nullptr, 0, scratch);
    return;
  }

  // Rank 0: gather every peer's tally and assemble the serial-identical
  // result.  Slot/round counters are replicas (take this rank's); the
  // per-node sums reduce across ranks.
  RankTally total = mine;
  for (unsigned r = 1; r < ranks; ++r) {
    RankTally peer;
    swap_bytes(t, r, nullptr, 0, &peer, sizeof(peer), scratch);
    MMN_REQUIRE(peer.completed == mine.completed,
                "ranks disagree on termination — determinism broken");
    total.p2p_messages += peer.p2p_messages;
    total.fault_drops += peer.fault_drops;
    total.xshard_msgs += peer.xshard_msgs;
    total.boundary_edges += peer.boundary_edges;
    total.wire_bytes += peer.wire_bytes;
    if (r == ranks - 1) total.digest = peer.digest;  // chain ends at K-1
  }

  RunResult result;
  result.realized_n = g.num_nodes();
  result.completed = completed;
  result.status = completed ? sim::RunStatus::kCompleted
                            : sim::RunStatus::kSlotCapReached;
  result.metrics = eng.metrics();
  result.metrics.p2p_messages = total.p2p_messages;
  if (s.digest) result.digest = total.digest;
  if (faulted) {
    result.faults = eng.faults()->stats();  // event counters are replicas
    result.faults.drops = total.fault_drops;
    if (s.digest) {
      result.digest = digest_mix(result.digest, result.faults.digest_word());
    }
  }
  *out = result;

  if (out_stats != nullptr) {
    out_stats->xshard_msgs = total.xshard_msgs;
    // Every cross-shard edge is counted by both owning windows.
    out_stats->boundary_edges = total.boundary_edges / 2;
    out_stats->wire_bytes = total.wire_bytes;
    out_stats->rounds = result.metrics.rounds;
  }
}

}  // namespace

RunResult run_sharded(const Scenario& s, NodeId n, std::uint64_t seed,
                      unsigned ranks, double load, std::uint32_t faults,
                      ShardStats* stats) {
  MMN_REQUIRE(ranks >= 1, "ranks must be positive");
  MMN_REQUIRE(load == 0.0 || s.make_load_factory != nullptr,
              "scenario is not load-capable (no make_load_factory)");
  MMN_REQUIRE(faults == 0 || s.make_fault_plan != nullptr,
              "scenario is not fault-capable (no make_fault_plan)");
  if (ranks == 1) {
    if (stats != nullptr) *stats = ShardStats{};
    RunResult r = run(s, n, seed, nullptr, EngineKind::kSync, load, faults);
    if (stats != nullptr) stats->rounds = r.metrics.rounds;
    return r;
  }
  RunResult result;
  sim::shard_comm::run_ranks(ranks, [&](sim::shard_comm::Transport& t) {
    run_rank(s, n, seed, load, faults, t, &result, stats);
  });
  return result;
}

}  // namespace mmn::scenario
