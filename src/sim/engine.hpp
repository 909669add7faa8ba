// Synchronous multimedia-network engine.
//
// Executes one Process per node in lockstep rounds (Section 2):
//   * point-to-point messages sent in round r are delivered in round r + 1
//     (message delay = 1 time unit, one message per link direction per round);
//   * the channel slot of round r is observed by every node in round r + 1
//     (slot length = 1 time unit).
// Each process sees only its local view — its id, its incident links, n, and
// whatever arrives over the two media.  Every run is deterministic given the
// seed; per-node RNG streams are forked from it.
//
// The engine is a thin stepping policy over sim::RuntimeCore, which owns the
// substrate (views, RNGs, channel, metrics, flat message arena) and the
// bookkeeping both policies share: the finished flags and per-shard
// outstanding counters, the fault runtime and crash gate, the round
// counter, and the fault-gated staging behind NodeContext; see
// sim/runtime_core.hpp.  What is left here is the lockstep order: one
// Process::round per awake node per round.  A node is awake unless it
// asked to sleep (NodeContext::sleep) and neither a message nor an idle
// slot has woken it since, or asked to doze (NodeContext::doze) and
// neither a message nor a public fold's event has woken it since — the
// core's active set, which steps a resting barrier-step or observed-step
// node (core/stepped.hpp) only when it has work, with results
// bit-identical to stepping every node.  Node execution within a round is
// delegated to a Scheduler — serial by default, or an std::thread pool
// that shards the node set; both produce bit-identical results for the
// same seed (sim/scheduler.hpp).
//
// The same Engine runs one rank of a sharded multi-process run: built with a
// RankSpec and a Transport it steps only its node window, and RuntimeCore
// swaps the cross-window effects with the other ranks once per round
// (sim/rank.hpp, sim/shard_comm.hpp).  Threads inside a rank come from the
// same optional Scheduler.
//
// The per-node hot path is devirtualized end to end: the core's shard loop
// reaches node_round through a raw function pointer, and NodeContext is a
// concrete final class (sim/runtime_core.hpp) staging effects straight into
// the shard buffer — the only virtual call per stepped node (not per node:
// a resting node costs one flag test) is Process::round itself.  The same
// Process still runs on the asynchronous engine underneath the busy-tone
// synchronizer of Section 7.1, which feeds NodeContext through its sink
// hooks (see core/synchronizer.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/graph.hpp"
#include "sim/runtime_core.hpp"
#include "support/metrics.hpp"

namespace mmn::sim {

struct RankSpec;

class Engine {
 public:
  /// Builds the network: one process per node of g.  `g` must outlive the
  /// engine — node views are zero-copy windows into its adjacency arena.
  /// The default scheduler
  /// is serial; pass make_scheduler(threads) to shard rounds over a pool.
  /// A null discipline is the free-for-all channel (the seed behavior);
  /// pass make_discipline(kind) to run the workload under TDMA, Capetanakis
  /// tree scheduling, or the unslotted busy-tone emulation
  /// (sim/channel_discipline.hpp).
  Engine(const Graph& g, const ProcessFactory& factory, std::uint64_t seed,
         std::unique_ptr<Scheduler> scheduler = nullptr,
         std::unique_ptr<ChannelDiscipline> discipline = nullptr);
  /// One rank of a sharded run (sim/rank.hpp).  `g` must be a windowed (or
  /// full) build whose owned rows cover [spec.lo, spec.hi), and `factory`
  /// sees owned views only.  The discipline must be built identically on
  /// every rank (same kind, same seed); `transport` must outlive the engine.
  /// With spec.ranks == 1 this is the single-process engine.
  Engine(const Graph& g, const RankSpec& spec, const ProcessFactory& factory,
         std::uint64_t seed, shard_comm::Transport& transport,
         std::unique_ptr<ChannelDiscipline> discipline,
         std::unique_ptr<Scheduler> scheduler = nullptr);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Runs until every process is finished and the channel is idle (no write
  /// staged, nothing deferred inside the discipline), or until max_rounds
  /// elapse — then status() reports kSlotCapReached instead of aborting,
  /// the same non-aborting surface AsyncEngine has had since PR 2.  The
  /// returned metrics are well-formed either way.
  Metrics run(std::uint64_t max_rounds);

  /// Runs at most `rounds` additional rounds; returns true if all finished
  /// and the channel is idle.  On a sharded run every rank must call with
  /// the same budget: they swap every round and decide termination on
  /// identical global state.
  bool step(std::uint64_t rounds);

  /// Outcome of the last run()/step() call (kRunning after a step() that
  /// ran out of rounds; run() maps that to kSlotCapReached).
  RunStatus status() const { return status_; }

  /// Installs deterministic fault injection (sim/fault.hpp).  Must be
  /// called before the first round; the plan's events apply at slot
  /// boundaries, before the round's node phase.  One installation per
  /// engine — recovery flows build a fresh engine on the compacted graph.
  void install_faults(const FaultPlan& plan) { core_.install_faults(plan); }

  /// The installed fault runtime (stats + overlay), or null.
  const FaultRuntime* faults() const { return core_.faults(); }
  FaultRuntime* faults() { return core_.faults(); }

  /// The run's metrics.  On a sharded run the slot and round counters are
  /// replicas of the serial run's, while p2p_messages counts only sends by
  /// owned nodes (sum over ranks to compare with a serial run).
  const Metrics& metrics() const { return core_.metrics(); }

  /// Per-class delay/backlog accounting of open-loop workloads
  /// (sim/traffic.hpp); untouched by closed-loop protocols.
  const LatencyRecorder& latency() const { return core_.latency(); }

  /// Direct access to a node's process by global id (owned nodes only on
  /// a sharded run; for reading results and tests).  Mutating a process so
  /// that finished() changes outside of round() breaks the core's
  /// incrementally maintained finished count — finished() must only change
  /// inside round() calls.
  Process& process(NodeId v);
  const Process& process(NodeId v) const;
  /// Nodes this engine steps (all n on a single rank).
  NodeId num_nodes() const { return core_.num_nodes(); }

  /// Cross-shard messages this rank sent to peers (headers on the wire).
  std::uint64_t xshard_msgs() const { return core_.xshard_msgs(); }
  /// Edges with exactly one endpoint in this rank's window —
  /// bench_shard_comm's bytes denominator.  Both are 0 on a single rank.
  std::uint64_t boundary_edges() const { return core_.boundary_edges(); }

 private:
  Engine(const Graph& g, const ProcessFactory& factory, std::uint64_t seed,
         std::unique_ptr<Scheduler> scheduler,
         std::unique_ptr<ChannelDiscipline> discipline,
         shard_comm::Transport* transport);

  void node_round(unsigned shard, NodeId v);

  RuntimeCore core_;
  std::vector<std::unique_ptr<Process>> processes_;  ///< local index
  RunStatus status_ = RunStatus::kRunning;
};

}  // namespace mmn::sim
