#include "sim/engine.hpp"

#include <utility>

#include "sim/fault.hpp"
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
    : core_(g, seed, std::move(scheduler), std::move(discipline), transport) {
  const NodeId n = core_.num_nodes();
  processes_.reserve(n);
  finished_flag_.reserve(n);
  // Views are fully built by the core before any factory call: a process may
  // inspect only its own view, but the vector must not reallocate afterwards.
  for (NodeId v = 0; v < n; ++v) {
    processes_.push_back(factory(core_.view(v)));
    MMN_REQUIRE(processes_.back() != nullptr, "factory returned null process");
    finished_flag_.push_back(processes_.back()->finished() ? 1 : 0);
  }
  core_.init_outstanding(finished_flag_);
}

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
/// scheduler through a raw function pointer, with a concrete NodeContext
/// staging every externally visible effect into the shard's buffer — the
/// core commits shards in ascending order, so the trace is
/// scheduler-independent.
void Engine::node_round(unsigned shard, NodeId v) {
  const EpochOverlay* overlay = nullptr;
  if (faults_ != nullptr) [[unlikely]] {
    overlay = &faults_->overlay();
    if (!overlay->node_alive(core_.window_lo() + v)) {
      // A crashed node does not step; whatever was delivered to it this
      // round is lost-and-counted, not processed.
      core_.shard(shard).fault_drops += core_.inbox(v).size();
      return;
    }
  }
  NodeContext ctx(core_.view(v), core_.rng(v), core_.inbox(v), core_.slot(),
                  core_.round(), core_.shard(shard), overlay);
  processes_[v]->round(ctx);
  const char done = processes_[v]->finished() ? 1 : 0;
  if (done != finished_flag_[v]) {
    finished_flag_[v] = done;
    core_.outstanding(shard).count += done ? -1 : 1;
  }
}

void Engine::run_one_round() {
  // Fault events scheduled for this slot apply before any shard steps, on
  // one thread — every node of the round sees the same topology.
  if (faults_ != nullptr) [[unlikely]] {
    faults_->apply_slot(core_.round(), core_.discipline());
  }
  core_.run_round(Scheduler::NodeFn{
      [](void* env, unsigned s, NodeId v) {
        static_cast<Engine*>(env)->node_round(s, v);
      },
      this});
}

void Engine::install_faults(const FaultPlan& plan) {
  MMN_REQUIRE(core_.round() == 0 && faults_ == nullptr,
              "install_faults: once, before the first round");
  // On a sharded run every rank replays the identical full plan against
  // its own overlay replica (a windowed graph reports global n and m), so
  // liveness tests and discipline stifles agree across ranks.
  faults_ = std::make_unique<FaultRuntime>(core_.graph(), plan);
  core_.set_fault_runtime(faults_.get());
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
    run_one_round();
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
