#include "sim/engine.hpp"

#include <utility>

#include "sim/rank.hpp"
#include "sim/shard_comm.hpp"
#include "support/check.hpp"

namespace mmn::sim {

Engine::Engine(const Graph& g, const ProcessFactory& factory,
               std::uint64_t seed, std::unique_ptr<Scheduler> scheduler,
               std::unique_ptr<ChannelDiscipline> discipline)
    : Engine(g, factory, seed, std::move(scheduler), std::move(discipline),
             nullptr) {}

Engine::Engine(const Graph& g, const RankSpec& spec,
               const ProcessFactory& factory, std::uint64_t seed,
               shard_comm::Transport& transport,
               std::unique_ptr<ChannelDiscipline> discipline,
               std::unique_ptr<Scheduler> scheduler)
    : Engine(g, factory, seed, std::move(scheduler), std::move(discipline),
             &transport) {
  MMN_REQUIRE(spec.rank == transport.rank() && spec.ranks == transport.ranks() &&
                  spec.lo == core_.window_lo() &&
                  spec.hi - spec.lo == core_.num_nodes(),
              "RankSpec must be the transport's shard_range(n, rank, ranks)");
}

Engine::Engine(const Graph& g, const ProcessFactory& factory,
               std::uint64_t seed, std::unique_ptr<Scheduler> scheduler,
               std::unique_ptr<ChannelDiscipline> discipline,
               shard_comm::Transport* transport)
    : core_(g, seed, std::move(scheduler), std::move(discipline), transport),
      processes_(core_.build_processes(factory)) {}

Engine::~Engine() = default;

Process& Engine::process(NodeId v) {
  const NodeId i = v - core_.window_lo();  // wraps below the window
  MMN_REQUIRE(i < processes_.size(), "node id out of range for this engine");
  return *processes_[i];
}

const Process& Engine::process(NodeId v) const {
  const NodeId i = v - core_.window_lo();
  MMN_REQUIRE(i < processes_.size(), "node id out of range for this engine");
  return *processes_[i];
}

/// The per-node body of one round (v is the local index); reached from the
/// core's shard loop through a raw function pointer, with a concrete
/// NodeContext staging every externally visible effect into the shard's
/// buffer — the core commits shards in ascending order, so the trace is
/// scheduler-independent.  A crashed node does not step; whatever was
/// delivered to it this round is lost-and-counted, not processed, and it
/// stays awake.
void Engine::node_round(unsigned shard, NodeId v) {
  const std::span<const Received> inbox = core_.inbox(v);
  if (!core_.node_up(shard, v, inbox.size())) [[unlikely]] return;
  NodeContext ctx(core_.view(v), core_.rng(v), inbox, core_.slot(),
                  core_.round(), core_.shard(shard), core_.fault_overlay(),
                  &core_.public_folds());
  processes_[v]->round(ctx);
  core_.note_finished(shard, v, processes_[v]->finished());
  if (ctx.sleep_requested()) {
    core_.note_sleep(shard, v);
  } else if (ctx.doze_requested()) {
    core_.note_doze(shard, v);
  }
}

bool Engine::step(std::uint64_t rounds) {
  // Like AsyncEngine, completion additionally requires an idle channel: a
  // deferring discipline (TDMA, Capetanakis) may still hold a write that
  // was registered but not yet transmitted, and dropping it would silently
  // diverge from the non-deferring run of the same workload.
  if (status_ != RunStatus::kCompleted) status_ = RunStatus::kRunning;
  for (std::uint64_t i = 0; i < rounds; ++i) {
    if (core_.all_finished() && core_.channel_idle()) {
      status_ = RunStatus::kCompleted;
      return true;
    }
    core_.run_round(Scheduler::NodeFn{
        [](void* env, unsigned s, NodeId v) {
          static_cast<Engine*>(env)->node_round(s, v);
        },
        this});
  }
  if (core_.all_finished() && core_.channel_idle()) {
    status_ = RunStatus::kCompleted;
    return true;
  }
  return false;
}

Metrics Engine::run(std::uint64_t max_rounds) {
  if (!step(max_rounds)) status_ = RunStatus::kSlotCapReached;
  return core_.metrics();
}

}  // namespace mmn::sim
