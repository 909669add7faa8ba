#include "scenario/registry.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "baselines/broadcast_global.hpp"
#include "baselines/p2p_global.hpp"
#include "core/anonymous.hpp"
#include "core/global_function.hpp"
#include "core/mst.hpp"
#include "core/partition_det.hpp"
#include "core/partition_rand.hpp"
#include "core/size.hpp"
#include "graph/generators.hpp"
#include "support/check.hpp"

namespace mmn::scenario {

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

void Registry::add(Scenario s) {
  MMN_REQUIRE(!s.name.empty(), "scenario needs a name");
  MMN_REQUIRE(find(s.name) == nullptr, "duplicate scenario name");
  MMN_REQUIRE(s.make_factory != nullptr, "scenario needs a process factory");
  MMN_REQUIRE(!s.sweep_n.empty(), "scenario needs a default sweep");
  scenarios_.push_back(std::move(s));
}

const Scenario* Registry::find(std::string_view name) const {
  for (const Scenario& s : scenarios_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

const OpenLoopConfig* Scenario::open_loop() const {
  const auto* kind = std::get_if<OpenLoop>(&workload);
  return kind != nullptr ? &kind->config : nullptr;
}

sim::AsyncProcessFactory Scenario::make_async_load_factory(const Graph&,
                                                           double load) const {
  const OpenLoopConfig* base = open_loop();
  MMN_REQUIRE(base != nullptr, "scenario is not an open-loop workload");
  OpenLoopConfig c = *base;
  c.offered = load;
  return make_open_loop_async_factory(c);
}

Graph make_scenario_graph(const Scenario& s, NodeId n, std::uint64_t seed) {
  return build_topology(
      TopologySpec{s.topology, topology_round_n(s.topology, n), seed});
}

namespace {

using MakeFactory = std::function<sim::ProcessFactory(const Graph&)>;

/// make_factory for processes built as P(view, args...).
template <typename P, typename... Args>
MakeFactory factory(Args... args) {
  return [args...](const Graph&) -> sim::ProcessFactory {
    return [args...](const sim::LocalView& v) {
      return std::make_unique<P>(v, args...);
    };
  };
}

/// As factory(), with the node's input value last: P(view, args...,
/// input(self)).
template <typename P, typename... Args>
MakeFactory valued(sim::Word (*input)(NodeId), Args... args) {
  return [input, args...](const Graph&) -> sim::ProcessFactory {
    return [input, args...](const sim::LocalView& v) {
      return std::make_unique<P>(v, args..., input(v.self));
    };
  };
}

sim::Word id_plus_one(NodeId v) { return static_cast<sim::Word>(v) + 1; }

/// Folds one word per node, node-major — deterministic and comparable
/// across schedulers, ranks and engines because node order is fixed.
template <typename PerNode>
std::uint64_t fold_nodes(const NodeResults& results, PerNode&& per_node) {
  std::uint64_t h = results.h0;  // kDigestSeed unless a rank chained into us
  for (NodeId i = 0; i < results.n; ++i) {
    h = digest_mix(h, per_node(results.at(results.begin + i)));
  }
  return h;
}

/// Digest of every node's P::result().
template <typename P>
std::uint64_t result_digest(const NodeResults& results) {
  return fold_nodes(results, [](const sim::Process& p) {
    return static_cast<std::uint64_t>(dynamic_cast<const P&>(p).result());
  });
}

std::uint64_t size_digest(const NodeResults& results) {
  return fold_nodes(results, [](const sim::Process& p) {
    return dynamic_cast<const DeterministicSizeProcess&>(p).network_size();
  });
}

std::uint64_t mst_digest(const NodeResults& results) {
  return fold_nodes(results, [](const sim::Process& p) {
    std::vector<EdgeId> edges = dynamic_cast<const MstProcess&>(p).mst_edges();
    std::sort(edges.begin(), edges.end());
    std::uint64_t h = kDigestSeed;
    for (EdgeId e : edges) h = digest_mix(h, e);
    return h;
  });
}

std::uint64_t fragment_digest(const NodeResults& results) {
  return fold_nodes(results, [](const sim::Process& p) {
    const auto& f = dynamic_cast<const FragmentState&>(p);
    return digest_mix(f.fragment_id(),
                      static_cast<std::uint64_t>(f.tree_parent_edge()) + 1);
  });
}

/// Engine-generic open-loop digest: side-casts whichever process handle the
/// run produced to the shared OpenLoopStats surface.  (Sync and async runs
/// digest to different values — the gossip fold sees each engine's own
/// delivery order — but each is bit-stable across schedulers and dispatch
/// levels, which is what the equivalence suites compare.)
std::uint64_t load_digest(const NodeResults& results) {
  return open_loop_digest(
      results.n,
      [&results](NodeId v) -> const OpenLoopStats& {
        if (results.at) {
          return dynamic_cast<const OpenLoopStats&>(results.at(v));
        }
        return dynamic_cast<const OpenLoopStats&>(results.at_async(v));
      },
      results.begin, results.h0);
}

/// k connectivity-safe link kills at slot 24: the recovery entries' plan.
sim::FaultPlan kill_links(const Graph& g, std::uint32_t k, std::uint64_t seed) {
  return sim::FaultPlan::link_kills(g, k, /*slot=*/24, seed);
}

void register_all() {
  Registry& r = Registry::instance();
  const GlobalFunctionConfig det_min{
      .op = SemigroupOp::kMin,
      .variant = GlobalFunctionConfig::Variant::kDeterministic};
  const GlobalFunctionConfig rand_min{
      .op = SemigroupOp::kMin,
      .variant = GlobalFunctionConfig::Variant::kRandomized};

  r.add({.name = "partition/det/random",
         .description =
             "Section 3 deterministic partition on a random connected graph",
         .topology = TopoKind::kRandom,
         .make_factory = factory<PartitionDetProcess>(PartitionDetConfig{}),
         .digest = fragment_digest,
         .sweep_n = {64, 256}});
  r.add({.name = "partition/rand/random",
         .description =
             "Section 4 randomized partition on a random connected graph",
         .topology = TopoKind::kRandom,
         .make_factory = factory<PartitionRandProcess>(PartitionRandConfig{}),
         .digest = fragment_digest,
         .sweep_n = {64, 256}});
  r.add({.name = "partition/anon/random",
         .description =
             "Section 7.4 partition with unknown n and anonymous nodes",
         .topology = TopoKind::kRandom,
         .make_factory = factory<AnonymousPartitionProcess>(),
         .digest = fragment_digest,
         .sweep_n = {64, 256}});
  r.add({.name = "mst/random",
         .description = "Section 6 multimedia MST on a random connected graph",
         .topology = TopoKind::kRandom,
         .make_factory = factory<MstProcess>(),
         .digest = mst_digest,
         .sweep_n = {64, 256}});
  r.add({.name = "global/min/det/random",
         .description =
             "Section 5 deterministic global min on a random connected graph",
         .topology = TopoKind::kRandom,
         .make_factory = valued<GlobalFunctionProcess>(id_plus_one, det_min),
         .digest = result_digest<GlobalFunctionProcess>,
         .sweep_n = {64, 256}});
  r.add({.name = "global/min/rand/ring",
         .description = "Section 5 randomized global min on a ring",
         .topology = TopoKind::kRing,
         .make_factory = valued<GlobalFunctionProcess>(id_plus_one, rand_min),
         .digest = result_digest<GlobalFunctionProcess>,
         .sweep_n = {256, 1024, 4096}});
  r.add({.name = "global/sum/bcast/complete",
         .description =
             "Channel-only TDMA baseline folding a sum on a complete graph",
         .topology = TopoKind::kComplete,
         .make_factory =
             valued<BroadcastGlobalProcess>(id_plus_one, SemigroupOp::kSum),
         .digest = result_digest<BroadcastGlobalProcess>,
         .sweep_n = {64, 128}});
  r.add({.name = "global/max/tdma/ring",
         .description = "TDMA channel discipline folding a max on a sparse ring",
         .topology = TopoKind::kRing,
         .make_factory = valued<BroadcastGlobalProcess>(
             [](NodeId v) { return static_cast<sim::Word>(v % 17) + 1; },
             SemigroupOp::kMax),
         .digest = result_digest<BroadcastGlobalProcess>,
         .sweep_n = {64, 128}});
  r.add({.name = "global/min/p2p/grid",
         .description =
             "Pure point-to-point baseline folding a min on a square grid",
         .topology = TopoKind::kGrid,
         .make_factory = valued<P2pGlobalProcess>(
             id_plus_one, P2pGlobalConfig{.op = SemigroupOp::kMin}),
         .digest = result_digest<P2pGlobalProcess>,
         .sweep_n = {64, 256},
         .channel_free = true});  // no channel use: async-capable
  r.add({.name = "global/sum/p2p/hypercube",
         .description = "Pure point-to-point sum on an iPSC-style hypercube",
         .topology = TopoKind::kHypercube,
         .make_factory = [](const Graph& g) -> sim::ProcessFactory {
           std::int32_t dim = 0;
           while ((NodeId{1} << dim) < g.num_nodes()) ++dim;
           return valued<P2pGlobalProcess>(
               id_plus_one, P2pGlobalConfig{.op = SemigroupOp::kSum,
                                            .known_diameter = dim})(g);
         },
         .digest = result_digest<P2pGlobalProcess>,
         .sweep_n = {64, 256},
         .channel_free = true,
         .async_max_delay_slots = 2});  // messages straddle slot boundaries

  // ---- channel-discipline variants (sim/channel_discipline.hpp) ----------
  //
  // The contention workloads carry no medium-access logic of their own —
  // every unresolved node writes every slot — so the registered discipline
  // is what schedules them.  The unslotted variants run unmodified channel
  // protocols through the Section 7.2 busy-tone emulation, which preserves
  // every slot outcome while accounting emergent continuous time.

  r.add({.name = "global/max/cape/ring",
         .description =
             "Greedy contenders folding a max, scheduled by Capetanakis "
             "splitting",
         .topology = TopoKind::kRing,
         .make_factory = valued<ContentionGlobalProcess>(
             [](NodeId v) { return static_cast<sim::Word>(v % 23) + 1; },
             SemigroupOp::kMax),
         .digest = result_digest<ContentionGlobalProcess>,
         .sweep_n = {64, 128},
         .discipline = sim::DisciplineKind::kCapetanakis});
  r.add({.name = "global/sum/tdma/grid",
         .description =
             "Greedy contenders folding a sum, serialized by the TDMA "
             "discipline",
         .topology = TopoKind::kGrid,
         .make_factory =
             valued<ContentionGlobalProcess>(id_plus_one, SemigroupOp::kSum),
         .digest = result_digest<ContentionGlobalProcess>,
         .sweep_n = {64, 256},
         .discipline = sim::DisciplineKind::kTdma});
  r.add({.name = "size/unslotted/clique",
         .description =
             "Exact network size on a clique over the unslotted busy-tone "
             "channel",
         .topology = TopoKind::kComplete,
         .make_factory = factory<DeterministicSizeProcess>(),
         .digest = size_digest,
         .sweep_n = {48, 96},
         .discipline = sim::DisciplineKind::kUnslotted});
  r.add({.name = "partition/det/unslotted/random",
         .description =
             "Section 3 partition driven over the unslotted busy-tone channel",
         .topology = TopoKind::kRandom,
         .make_factory = factory<PartitionDetProcess>(PartitionDetConfig{}),
         .digest = fragment_digest,
         .sweep_n = {64, 256},
         .discipline = sim::DisciplineKind::kUnslotted});
  // Channel-free workload: on the synchronous engine the unslotted
  // discipline only idles, but the async run routes the synchronizer's busy
  // tones through the emulation — the discipline-under-async case.
  r.add({.name = "global/min/p2p/unslotted/grid",
         .description =
             "P2P min fold with the synchronizer's tones on the unslotted "
             "channel",
         .topology = TopoKind::kGrid,
         .make_factory = valued<P2pGlobalProcess>(
             [](NodeId v) { return static_cast<sim::Word>(v) + 3; },
             P2pGlobalConfig{.op = SemigroupOp::kMin}),
         .digest = result_digest<P2pGlobalProcess>,
         .sweep_n = {64, 256},
         .channel_free = true,
         .discipline = sim::DisciplineKind::kUnslotted});
  r.add({.name = "size/det/random",
         .description =
             "Section 7.3 exact network-size computation on a random graph",
         .topology = TopoKind::kRandom,
         .make_factory = factory<DeterministicSizeProcess>(),
         .digest = size_digest,
         .sweep_n = {64, 256}});

  // ---- lower-bound and implicit-topology entries -------------------------
  //
  // The ray graph is the Theorem 2 topology: the multimedia lower bound is
  // proved on a center with vertex-disjoint rays, where the channel is the
  // only way to beat the diameter.  The implicit-clique entries run on
  // Graph::implicit_complete — O(1) topology storage — which is what lets
  // the dense scenarios reach n = 16384 inside the CI memory ceiling.

  r.add({.name = "global/min/det/ray",
         .description =
             "Section 5 deterministic global min on the Theorem 2 ray graph",
         .topology = TopoKind::kRay,
         .make_factory = valued<GlobalFunctionProcess>(id_plus_one, det_min),
         .digest = result_digest<GlobalFunctionProcess>,
         .sweep_n = {64, 256}});
  r.add({.name = "partition/det/ray",
         .description =
             "Section 3 deterministic partition on the Theorem 2 ray graph",
         .topology = TopoKind::kRay,
         .make_factory = factory<PartitionDetProcess>(PartitionDetConfig{}),
         .digest = fragment_digest,
         .sweep_n = {64, 256}});
  r.add({.name = "global/sum/bcast/iclique",
         .description =
             "Channel-only TDMA sum on an implicit (O(1)-storage) clique",
         .topology = TopoKind::kCliqueImplicit,
         .make_factory =
             valued<BroadcastGlobalProcess>(id_plus_one, SemigroupOp::kSum),
         .digest = result_digest<BroadcastGlobalProcess>,
         .sweep_n = {64, 128}});
  r.add({.name = "size/unslotted/iclique",
         .description =
             "Exact network size on an implicit clique, unslotted busy-tone",
         .topology = TopoKind::kCliqueImplicit,
         .make_factory = factory<DeterministicSizeProcess>(),
         .digest = size_digest,
         .sweep_n = {48, 96},
         .discipline = sim::DisciplineKind::kUnslotted});

  // ---- open-loop load family (core/openloop.hpp) -------------------------
  //
  // Open-loop scenarios run on both engines at any offered load
  // (scenario_sweep --load=, bench_load_sweep), falling back to their
  // default_load.  The free-for-all entry livelocks past saturation by
  // design — two simultaneously backlogged stations re-collide every slot
  // forever.  Its synchronous runs cut off right after the horizon (a
  // non-deferring discipline holds no backlog the engine could see) and its
  // native-async runs burn to the slot cap with completed == false; both
  // cutoffs are deterministic, and the standing backlog is the result — the
  // load-sweep story's baseline curve.

  const auto stations = [](sim::ArrivalKind arrivals) {
    return OpenLoopConfig{.arrivals = arrivals, .horizon = 1200};
  };
  const auto poisson = stations(sim::ArrivalKind::kPoisson);
  r.add(open_loop_scenario(
      "load/poisson/ffa/ring",
      "Open-loop Poisson QoS stations on the bare collision channel",
      TopoKind::kRing, poisson, 0.6, sim::DisciplineKind::kFreeForAll,
      {64, 128}));
  r.add(open_loop_scenario(
      "load/poisson/pb/ring",
      "Open-loop Poisson stations under pseudo-Bayesian stabilization",
      TopoKind::kRing, poisson, 0.3, sim::DisciplineKind::kPseudoBayesian,
      {64, 128}));
  r.add(open_loop_scenario(
      "load/poisson/resv/ring",
      "Open-loop Poisson stations under the reservation multimedia MAC",
      TopoKind::kRing, poisson, 0.8, sim::DisciplineKind::kReservation,
      {64, 128}));
  r.add(open_loop_scenario(
      "load/onoff/resv/grid",
      "Bursty on-off stations under the reservation MAC on a grid",
      TopoKind::kGrid, stations(sim::ArrivalKind::kOnOff), 0.7,
      sim::DisciplineKind::kReservation, {64, 256}));
  r.add(open_loop_scenario(
      "load/poisson/pb/iclique",
      "Saturated Poisson stations, stabilized Aloha on an implicit clique",
      TopoKind::kCliqueImplicit, poisson, 0.9,
      sim::DisciplineKind::kPseudoBayesian, {64, 128}));
  // Deferring disciplines on the native-async path (the synchronizer would
  // reject them; open-loop stations don't read idle slots, so they are fine
  // here).  TDMA is stable at any offered load below 1; Capetanakis tree
  // splitting saturates near 0.5 packets/slot — 0.4 sits inside capacity.
  r.add(open_loop_scenario(
      "load/poisson/tdma/ring",
      "Open-loop Poisson stations under fixed TDMA slot ownership",
      TopoKind::kRing, poisson, 0.5, sim::DisciplineKind::kTdma, {64, 128}));
  r.add(open_loop_scenario(
      "load/poisson/cape/ring",
      "Open-loop Poisson stations under Capetanakis tree splitting",
      TopoKind::kRing, poisson, 0.4, sim::DisciplineKind::kCapetanakis,
      {64, 128}));

  // ---- fault-injection family (sim/fault.hpp) ----------------------------
  //
  // The recovery entries pin protocol re-convergence after topology damage:
  // phase A runs the protocol into k connectivity-safe link kills, the epoch
  // overlay compacts the surviving graph, and phase B must re-converge to a
  // valid result on it — the digest (protocol result + kill-set word) is
  // deterministic per (n, seed, k) and invariant to the epoch boundary.  The
  // churn entry runs the open-loop reservation MAC through rate-driven link
  // and station churn; its FaultStats fold into the digest, so the
  // equivalence suites cover drop accounting across schedulers too.

  r.add({.name = "fault/partition/det/random",
         .description =
             "Section 3 partition re-converging after k mid-run link kills",
         .topology = TopoKind::kRandom,
         .make_factory = factory<PartitionDetProcess>(PartitionDetConfig{}),
         .digest = fragment_digest,
         .sweep_n = {64, 128},
         .workload = Recovery{.epoch_slots = 96},
         .make_fault_plan = kill_links,
         .default_faults = 4});
  r.add({.name = "fault/mst/random",
         .description = "Section 6 multimedia MST rebuilt after k mid-run "
                        "link kills",
         .topology = TopoKind::kRandom,
         .make_factory = factory<MstProcess>(),
         .digest = mst_digest,
         .sweep_n = {64, 128},
         .workload = Recovery{.epoch_slots = 96},
         .make_fault_plan = kill_links,
         .default_faults = 4});

  Scenario churn = open_loop_scenario(
      "fault/load/churn/ring",
      "Reservation-MAC ring at offered 0.6 under link and station churn",
      TopoKind::kRing, poisson, 0.6, sim::DisciplineKind::kReservation,
      {64, 128});
  // Intensity k scales both churn rates; stations stay down 40 slots.
  churn.make_fault_plan = [horizon = poisson.horizon](
                              const Graph& g, std::uint32_t k,
                              std::uint64_t seed) {
    sim::FaultPlan plan =
        sim::FaultPlan::link_churn(g, 0.004 * k, horizon, seed);
    plan.merge(sim::FaultPlan::node_churn(g, 0.001 * k, /*down_slots=*/40,
                                          horizon, seed));
    return plan;
  };
  churn.default_faults = 1;
  r.add(std::move(churn));
}

}  // namespace

Scenario open_loop_scenario(std::string name, std::string description,
                            TopoKind topology, OpenLoopConfig base,
                            double default_load, sim::DisciplineKind discipline,
                            std::vector<NodeId> sweep_n) {
  base.offered = default_load;
  return {.name = std::move(name),
          .description = std::move(description),
          .topology = topology,
          .make_factory =
              [base](const Graph&) { return make_open_loop_factory(base); },
          .digest = load_digest,
          .sweep_n = std::move(sweep_n),
          // Generation plus a bounded drain window: a saturated stabilized
          // lane drains at ~1/e packets per slot, so 8x the horizon covers
          // offered loads well past capacity.
          .max_rounds = base.horizon * 8 + 4096,
          .discipline = discipline,
          .default_load = default_load,
          .workload = OpenLoop{base}};
}

void register_builtin() {
  static const bool once = [] {
    register_all();
    return true;
  }();
  (void)once;
}

}  // namespace mmn::scenario
