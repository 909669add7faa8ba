// Scenario registry: named workload configurations.
//
// A Scenario bundles a graph family, a protocol factory, a result digest,
// and a default n/seed sweep under one name ("mst/random", "global/min/
// rand/ring", ...).  Benches, examples, and tests consume the table from
// here instead of hand-rolling their own loops, so adding a workload is one
// registration — the throughput bench, the equivalence suite, and any sweep
// driver pick it up automatically.
//
// Every workload runs through one entry, run(s, n, seed, RunConfig): the
// RunConfig picks the engine (synchronous lockstep Engine, or the
// asynchronous AsyncEngine — natively for open-loop stations, through the
// busy-tone synchronizer of Section 7.1 for channel-free protocols), the
// scheduler threads, the rank processes of a sharded run, the offered load
// and the fault intensity, and every combination the scenario admits is an
// ordinary cell.  All scenarios are deterministic per (n, seed, engine)
// and independent of threads and ranks: a run under any of them returns
// bit-identical Metrics and digest to the serial run of the same engine
// (see sim/scheduler.hpp, sim/rank.hpp and the async determinism notes in
// sim/async_engine.hpp).
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "core/openloop.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "sim/async_engine.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "sim/traffic.hpp"
#include "support/metrics.hpp"

namespace mmn::scenario {

/// Which stepping policy run() drives the workload with.
enum class EngineKind : std::uint8_t {
  kSync,   ///< lockstep rounds (sim::Engine)
  kAsync,  ///< bounded-delay links + synchronizer (sim::AsyncEngine)
};

/// Engine-generic view of a finished run's per-node protocol processes, for
/// digest implementations.  `at(v)` resolves to the protocol process of node
/// v regardless of the engine that ran it (the async path unwraps the
/// synchronizer automatically).
struct NodeResults {
  NodeId n = 0;
  std::function<const sim::Process&(NodeId)> at;
  /// Set instead of `at` on native-asynchronous runs (the open-loop load
  /// scenarios, which run AsyncProcesses without the synchronizer); digest
  /// implementations that support both engines side-cast whichever is set.
  std::function<const sim::AsyncProcess&(NodeId)> at_async = nullptr;
  /// Digest window for rank-mode chaining: digests fold node ids
  /// [begin, begin + n) starting from accumulator h0, so rank r folds its
  /// own window over rank r-1's partial hash and the chain ends
  /// bit-identical to the serial whole-run fold.  The defaults (0 and the
  /// FNV-1a offset basis, == kDigestSeed) reproduce the classic fold.
  NodeId begin = 0;
  std::uint64_t h0 = 0xcbf29ce484222325ULL;
};

/// The closed set of workload kinds run() drives.
///
/// A closed-loop protocol: make_factory's processes run until every node
/// has finished and the channel is idle.
struct Protocol {};
/// Open-loop stations (core/openloop.hpp).  run() builds them from `config`
/// at the run's offered load (RunConfig::load, else Scenario::default_load,
/// which replaces config.offered), on the synchronous engine or natively on
/// the asynchronous one — no synchronizer, so deferring disciplines are
/// allowed (open-loop stations read nothing into idle slots).  The result
/// carries the QoS section, and faulted runs count orphaned backlog.
struct OpenLoop {
  OpenLoopConfig config;
};
/// Two-phase recovery (the fault/ convergence scenarios).  A faulted run
/// steps the protocol serially into the faults (phase A, through the last
/// fault event), the epoch overlay compacts the surviving topology into a
/// fresh arena, and phase B re-runs the protocol from scratch on it under
/// the caller's threads.  `epoch_slots` is the configured epoch boundary;
/// the slots between the first fault and it model the detection/rebuild
/// window and bill into recovery_slots.  The digest folds phase B's result
/// with the overlay's kill-set word — both invariant to where the boundary
/// lands, so recovery digests pin re-convergence, not drop timing.
struct Recovery {
  std::uint64_t epoch_slots = 0;
};
using Workload = std::variant<Protocol, OpenLoop, Recovery>;

struct Scenario {
  std::string name{};         ///< "family/variant", unique in the registry
  std::string description{};  ///< one line for listings

  /// The topology family.  Every entry is size-parameterized: run() builds
  /// the graph from TopologySpec{topology, n, seed}, so any sweep driver
  /// can take the same scenario to 4k/16k/64k nodes (scenario_sweep --n=…,
  /// the topology/build benches, the large-n CI smoke).  Families with
  /// structural constraints (grids, hypercubes) round a nominal n via
  /// topology_round_n; strict CLIs check topology_valid_n instead.
  TopoKind topology = TopoKind::kRandom;

  /// Builds the per-node process factory for a given topology (open-loop
  /// scenarios: the synchronous stations at default_load).
  std::function<sim::ProcessFactory(const Graph& g)> make_factory{};

  /// Order-independent digest of the per-node results (e.g. the MST edge
  /// set, the fragment assignment, the computed global value), used to
  /// compare runs across schedulers, ranks and engines.  May be null.
  std::function<std::uint64_t(const NodeResults& results)> digest{};

  std::vector<NodeId> sweep_n{};  ///< default sweep sizes, ascending
  std::uint64_t default_seed = 7;
  std::uint64_t max_rounds = 200'000'000;  ///< round cap (slot cap async)

  /// True if the protocol never touches the channel — the requirement for
  /// running it under the synchronizer on the asynchronous engine.
  bool channel_free = false;

  /// Message-delay bound, in slots, for EngineKind::kAsync runs.
  std::uint32_t async_max_delay_slots = 1;

  /// Medium-access policy the run executes under
  /// (sim/channel_discipline.hpp).  Asynchronous protocol runs go through
  /// the busy-tone synchronizer, whose idle-slot pulses a deferring
  /// discipline would falsify — run() rejects kTdma/kCapetanakis there.
  sim::DisciplineKind discipline = sim::DisciplineKind::kFreeForAll;

  /// Offered load of an open-loop scenario when the caller passes none.
  double default_load = 0.0;

  Workload workload = Protocol{};

  /// Fault-injection hooks (sim/fault.hpp).  A scenario with make_fault_plan
  /// set is fault-capable: run() builds the plan at intensity k — the
  /// caller's RunConfig::faults, falling back to default_faults when that
  /// is 0 — and installs it on the engine.  The plan is a pure function of
  /// (g, k, seed), so faulted runs stay deterministic and independent of
  /// threads and ranks like everything else in the table.
  std::function<sim::FaultPlan(const Graph& g, std::uint32_t k,
                               std::uint64_t seed)>
      make_fault_plan = nullptr;
  std::uint32_t default_faults = 0;  ///< k when the caller passes 0

  /// The station config of an open-loop scenario; null for other kinds.
  const OpenLoopConfig* open_loop() const;
  /// True for the two-phase recovery kind.
  bool recovery() const { return std::holds_alternative<Recovery>(workload); }
  /// The native-asynchronous stations of an open-loop scenario at offered
  /// `load` (throws for other kinds).
  sim::AsyncProcessFactory make_async_load_factory(const Graph& g,
                                                   double load) const;
};

/// How to run a scenario: every knob of run() besides size and seed.  Each
/// combination the scenario admits is an ordinary cell; run() rejects the
/// rest before any rank process is forked.
struct RunConfig {
  EngineKind engine = EngineKind::kSync;
  /// Scheduler threads, per rank (1 = serial; sim/scheduler.hpp).
  unsigned threads = 1;
  /// Rank processes of a sharded run (sim/rank.hpp): each builds and steps
  /// only its node window.  Synchronous engine only; recovery scenarios
  /// (which re-partition mid-run) are rejected.
  unsigned ranks = 1;
  /// Offered load of an open-loop scenario; 0 = its default_load (rejected
  /// for other kinds).
  double load = 0.0;
  /// Fault intensity k; 0 = the scenario's default_faults (rejected for
  /// scenarios without make_fault_plan).
  std::uint32_t faults = 0;
};

/// Cross-rank traffic of a sharded run, for bench_shard_comm; zero when
/// ranks == 1 (no wire, no frontier).
struct ShardStats {
  std::uint64_t xshard_msgs = 0;     ///< cross-shard headers sent, all ranks
  std::uint64_t boundary_edges = 0;  ///< edges with endpoints in two shards
  std::uint64_t wire_bytes = 0;      ///< transport bytes sent, all ranks
};

struct RunResult {
  Metrics metrics;
  std::uint64_t digest = 0;  ///< 0 when the scenario has no digest fn
  NodeId realized_n = 0;     ///< nodes in the generated graph
  /// False when the round/slot cap elapsed with work still pending.  The
  /// digest is still reported — a capped run cuts off at a deterministic
  /// slot count, so capped results remain scheduler-comparable (the
  /// free-for-all load scenarios livelock past saturation by design).
  bool completed = true;
  /// Engine-uniform status: kCompleted, or kSlotCapReached when the cap
  /// elapsed (mirrors `completed`; neither engine aborts on a capped run).
  sim::RunStatus status = sim::RunStatus::kCompleted;
  /// Fault accounting of a faulted run; zeroed on fault-free runs.  On
  /// recovery scenarios this is phase A's tally with recovery_slots filled;
  /// on open-loop scenarios orphaned_pkts is the backlog stranded in
  /// stations still crashed at run end (lost to the crash, so it rides
  /// neither the livelock books nor the goodput).
  sim::FaultStats faults;
  /// Recovery scenarios: slots from the first fault event until phase B
  /// re-converged (phase-A remainder + phase-B rounds).
  std::uint64_t recovery_slots = 0;
  /// QoS section of an open-loop run: per-class delay/backlog summaries of
  /// the latency blocks of every shard of every rank (additive, so a
  /// sharded run reports the serial run's summaries); zero for other kinds.
  std::array<sim::QosSummary, sim::kNumQosClasses> qos{};
  /// Delivered / arrivals over the whole run, all classes (1.0 when no
  /// packet was ever generated).  bench_fault_churn's goodput_retention is
  /// the ratio of deliveries between a churned and a clean run.
  double delivered_ratio = 1.0;
  ShardStats shard;
};

class Registry {
 public:
  static Registry& instance();

  /// Registers a scenario; the name must be unused.  Elements have stable
  /// addresses (deque storage): pointers and references returned by find()
  /// or all() stay valid across later add() calls, which benches rely on
  /// when capturing scenarios in registered-benchmark lambdas.
  void add(Scenario s);

  const Scenario* find(std::string_view name) const;
  const std::deque<Scenario>& all() const { return scenarios_; }

 private:
  std::deque<Scenario> scenarios_;
};

/// Registers the built-in scenario table; idempotent.
void register_builtin();

/// An open-loop scenario: stations shaped by `base` (its `offered` is
/// replaced by default_load), gossip-digested, with a slot cap of the
/// horizon plus a drain window.  The registry's load/ and churn entries are
/// built with it, and benches and tests derive off-default variants (a
/// longer horizon, another discipline) the same way.
Scenario open_loop_scenario(std::string name, std::string description,
                            TopoKind topology, OpenLoopConfig base,
                            double default_load, sim::DisciplineKind discipline,
                            std::vector<NodeId> sweep_n);

/// The graph run() executes `s` on at nominal size n: the scenario's
/// topology family at topology_round_n(s.topology, n) nodes.
Graph make_scenario_graph(const Scenario& s, NodeId n, std::uint64_t seed);

/// Runs one scenario at size n under `config`: generate the graph (a rank
/// builds only its window), draw the fault plan, step the engine to
/// completion or the s.max_rounds cap, and digest and tally the result —
/// the one run path for every engine, thread count, rank count, load and
/// fault intensity.  Throws std::invalid_argument, before any rank is
/// forked, for a cell the scenario does not admit: a load on a non-open-
/// loop scenario, faults on one without make_fault_plan, ranks > 1 on the
/// asynchronous engine or on a recovery scenario, or an asynchronous
/// protocol run that the synchronizer cannot carry (not channel_free, a
/// deferring discipline, or faults).
RunResult run(const Scenario& s, NodeId n, std::uint64_t seed,
              const RunConfig& config = {});

/// FNV-1a fold helper for digest implementations.
inline std::uint64_t digest_mix(std::uint64_t h, std::uint64_t word) {
  h ^= word;
  return h * 0x100000001b3ULL;
}
inline constexpr std::uint64_t kDigestSeed = 0xcbf29ce484222325ULL;

}  // namespace mmn::scenario
