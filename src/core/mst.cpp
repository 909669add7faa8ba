#include "core/mst.hpp"

#include <algorithm>

#include "channel/capetanakis.hpp"
#include "core/partition_det.hpp"
#include "support/check.hpp"

namespace mmn {
namespace {

constexpr std::uint16_t kCoreAnnounce = 191;  // [core] Capetanakis payload
constexpr std::uint16_t kInitFrag = 192;      // [init_index] to all neighbors
constexpr std::uint16_t kHello = 193;         // child -> parent census
constexpr std::uint16_t kLocalMin = 194;      // [w, u, v, nbr_init] up-tree
constexpr std::uint16_t kCycleReport = 195;   // [init, w, u, v, nbr_init]

/// Stage 2, once per engine: the traversal scheduling the initial-fragment
/// cores and the cores it announced, ascending (the walk is depth-first,
/// left half first).  Its event is the schedule's completion.
class CoreScheduleFold final : public sim::PublicFold {
 public:
  explicit CoreScheduleFold(NodeId n) : resolver_(n) {}

  bool fold(const sim::SlotObservation& obs) override {
    const std::uint64_t before = resolver_.success_count();
    resolver_.observe(obs);
    if (resolver_.success_count() != before) {
      cores_.push_back(static_cast<NodeId>(obs.payload[0]));
    }
    return resolver_.done();
  }

  const CapetanakisResolver& resolver() const { return resolver_; }
  const std::vector<NodeId>& cores() const { return cores_; }

 private:
  CapetanakisResolver resolver_;
  std::vector<NodeId> cores_;
};

}  // namespace

/// Stage 2 + 3.  Steps: 0 = Capetanakis core scheduling (observed);
/// 1 = neighbor/initial-fragment census (fixed, 2 rounds); then per Boruvka
/// phase a barrier step (local minimum into the core) and a fixed k-slot
/// TDMA step (cycle of core reports).
class MstProcess::ComputeStage final : public SteppedProcess {
 public:
  ComputeStage(const sim::LocalView& view, const FragmentState* partition)
      : view_(view),
        partition_(partition),
        neighbor_init_(view.links().size(), -1),
        mst_link_(view.links().size(), false) {}

  std::vector<EdgeId> marked_edges() const {
    MMN_REQUIRE(finished(), "MST still running");
    std::vector<EdgeId> edges;
    const NeighborRange links = view_.links();
    for (std::size_t i = 0; i < links.size(); ++i) {
      if (mst_link_[i]) edges.push_back(links[i].edge);
    }
    return edges;
  }

  int phases_used() const {
    MMN_REQUIRE(finished(), "MST still running");
    return phases_done_;
  }

 protected:
  std::uint64_t num_steps() const override {
    return final_steps_.value_or(static_cast<std::uint64_t>(-1));
  }

  StepSpec step_spec(std::uint64_t step) const override {
    if (step == 0) return {StepKind::kObserved, 0};
    if (step == 1) return {StepKind::kFixed, 2};
    if ((step - 2) % 2 == 0) return {};  // local-minimum barrier
    return {StepKind::kFixed, static_cast<std::uint64_t>(k_)};
  }

  void step_begin(std::uint64_t step, sim::NodeContext& ctx) override {
    if (step == 0) {
      // Every node begins the stage in the same round, so all share one
      // fold; only the cores contend.
      schedule_ = &ctx.public_fold<CoreScheduleFold>(
          [&] { return CoreScheduleFold(view_.n); });
      pending_ = is_root();
      return;
    }
    if (step == 1) {
      ctx.broadcast(sim::Packet(kInitFrag, {init_index_}));
      if (!is_root()) {
        ctx.send(partition_->tree_parent_edge(), sim::Packet(kHello));
      }
      return;
    }
    if ((step - 2) % 2 == 0) {
      begin_local_min(ctx);
    }
  }

  void step_round(std::uint64_t step, sim::NodeContext& ctx) override {
    if (step == 0) {
      if (pending_ && schedule_->resolver().station_transmits(view_.self)) {
        ctx.channel_write(sim::Packet(
            kCoreAnnounce, {static_cast<sim::Word>(view_.self)}));
      }
      return;
    }
    if (step >= 2 && (step - 2) % 2 == 1) {
      // TDMA cycle: slot j belongs to the core of the j-th initial fragment.
      if (is_root() && rounds_in_step() == static_cast<std::uint64_t>(init_index_)) {
        ctx.channel_write(sim::Packet(
            kCycleReport,
            {init_index_, static_cast<sim::Word>(report_weight_),
             static_cast<sim::Word>(report_u_),
             static_cast<sim::Word>(report_v_), report_nbr_init_}));
      }
    }
  }

  void on_slot(std::uint64_t slot_step, const sim::SlotObservation& obs,
               sim::NodeContext&) override {
    if (slot_step == 0) {
      observe_schedule(obs);
      return;
    }
    if (slot_step >= 2 && (slot_step - 2) % 2 == 1) {
      MMN_ASSERT(obs.success() && obs.payload.type() == kCycleReport,
                 "every TDMA slot carries exactly one core report");
      cycle_reports_.push_back(obs.payload);
      if (cycle_reports_.size() == static_cast<std::size_t>(k_)) {
        process_cycle(slot_step);
      }
    }
  }

  bool observed_end(std::uint64_t step) const override {
    return step == 0 && schedule_->resolver().done();
  }

  // Only a pending core acts in stage 2; everyone else (and a core once
  // its announcement went through) dozes until the schedule completes.
  bool step_dormant(std::uint64_t step) const override {
    return step == 0 && !pending_;
  }

  void on_message(std::uint64_t /*step*/, const sim::Received& msg,
                  sim::NodeContext& ctx) override {
    const sim::Packet& p = msg.packet();
    switch (p.type()) {
      case kInitFrag: {
        const int idx = view_.link_index(msg.via);
        neighbor_init_[static_cast<std::size_t>(idx)] =
            static_cast<std::int32_t>(p[0]);
        break;
      }
      case kHello:
        ++children_;
        break;
      case kLocalMin: {
        const Weight w = static_cast<Weight>(p[0]);
        if (w != 0 && (report_weight_ == 0 || w < report_weight_)) {
          report_weight_ = w;
          report_u_ = static_cast<NodeId>(p[1]);
          report_v_ = static_cast<NodeId>(p[2]);
          report_nbr_init_ = p[3];
        }
        MMN_ASSERT(received_ < children_, "more local minima than children");
        if (++received_ == children_) send_local_min(ctx);
        break;
      }
      default:
        MMN_ASSERT(false, "unexpected packet in MST stage 3");
    }
  }

 private:
  bool is_root() const { return partition_->tree_parent() == view_.self; }

  void observe_schedule(const sim::SlotObservation& obs) {
    // A pending core is stepped every round, so it sees its own success.
    if (obs.success() && obs.writer == view_.self) pending_ = false;
    if (!schedule_->resolver().done()) return;
    // Schedule complete: the sorted core list is common knowledge.
    const std::vector<NodeId>& cores = schedule_->cores();
    k_ = static_cast<std::int64_t>(cores.size());
    MMN_ASSERT(k_ >= 1, "no initial fragments scheduled");
    const auto it = std::lower_bound(cores.begin(), cores.end(),
                                     partition_->fragment_id());
    MMN_ASSERT(it != cores.end() && *it == partition_->fragment_id(),
               "own fragment missing in schedule");
    init_index_ = it - cores.begin();
    current_ = std::make_unique<Dsu>(cores.size());
    if (k_ == 1) {
      final_steps_ = 1;  // the partition already spans the graph
    } else {
      // Every TDMA cycle buffers exactly k reports; growing by doubling
      // would keep up to twice that per node for the whole run.
      cycle_reports_.reserve(cores.size());
    }
  }

  void begin_local_min(sim::NodeContext& ctx) {
    received_ = 0;
    sent_ = false;
    report_weight_ = 0;
    // Own candidate: the lightest incident link leaving the *current*
    // fragment (links are weight-sorted, so the first hit is the minimum).
    const std::size_t mine = current_->find(static_cast<std::size_t>(init_index_));
    const NeighborRange links = view_.links();
    for (std::size_t i = 0; i < links.size(); ++i) {
      MMN_ASSERT(neighbor_init_[i] >= 0, "missing neighbor fragment census");
      if (current_->find(static_cast<std::size_t>(neighbor_init_[i])) == mine) {
        continue;
      }
      report_weight_ = links[i].weight;
      report_u_ = view_.self;
      report_v_ = links[i].to;
      report_nbr_init_ = neighbor_init_[i];
      break;
    }
    if (children_ == 0) send_local_min(ctx);
  }

  void send_local_min(sim::NodeContext& ctx) {
    if (sent_ || is_root()) return;
    sent_ = true;
    ctx.send(partition_->tree_parent_edge(),
             sim::Packet(kLocalMin,
                         {static_cast<sim::Word>(report_weight_),
                          static_cast<sim::Word>(report_u_),
                          static_cast<sim::Word>(report_v_),
                          report_nbr_init_}));
  }

  void process_cycle(std::uint64_t slot_step) {
    // Every node executes this identically from the shared slot contents.
    struct Chosen {
      Weight w;
      NodeId u, v;
      std::size_t from, to;
    };
    std::vector<Chosen> chosen;
    std::vector<std::optional<Chosen>> best(static_cast<std::size_t>(k_));
    for (const sim::Packet& p : cycle_reports_) {
      const Weight w = static_cast<Weight>(p[1]);
      if (w == 0) continue;  // that fragment saw no outgoing link
      const auto from = current_->find(static_cast<std::size_t>(p[0]));
      const auto to = current_->find(static_cast<std::size_t>(p[4]));
      MMN_ASSERT(from != to, "report crosses within one current fragment");
      Chosen c{w, static_cast<NodeId>(p[2]), static_cast<NodeId>(p[3]), from,
               to};
      if (!best[from] || c.w < best[from]->w) best[from] = c;
    }
    cycle_reports_.clear();
    for (const auto& b : best) {
      if (b) chosen.push_back(*b);
    }
    for (const Chosen& c : chosen) {
      current_->unite(c.from, c.to);
      if (c.u == view_.self || c.v == view_.self) {
        const NodeId other = c.u == view_.self ? c.v : c.u;
        const NeighborRange links = view_.links();
        for (std::size_t i = 0; i < links.size(); ++i) {
          if (links[i].to == other) mst_link_[i] = true;
        }
      }
    }
    ++phases_done_;
    if (current_->num_sets() == 1) final_steps_ = slot_step + 1;
  }

  const sim::LocalView& view_;
  const FragmentState* partition_;

  // Stage 2: the engine's fold; pending_ = a core not yet announced.
  const CoreScheduleFold* schedule_ = nullptr;
  bool pending_ = false;
  std::int64_t k_ = 0;
  sim::Word init_index_ = 0;

  // Stage 3.
  std::vector<std::int32_t> neighbor_init_;  // per link
  std::uint32_t children_ = 0;
  std::uint32_t received_ = 0;
  bool sent_ = false;
  Weight report_weight_ = 0;
  NodeId report_u_ = kNoNode;
  NodeId report_v_ = kNoNode;
  sim::Word report_nbr_init_ = 0;
  std::vector<sim::Packet> cycle_reports_;
  std::unique_ptr<Dsu> current_;
  std::vector<bool> mst_link_;
  int phases_done_ = 0;
  std::optional<std::uint64_t> final_steps_;
};

MstProcess::MstProcess(const sim::LocalView& view) {
  std::vector<std::unique_ptr<SteppedProcess>> stages;
  auto partition =
      std::make_unique<PartitionDetProcess>(view, PartitionDetConfig{});
  partition_ = partition.get();
  stages.push_back(std::move(partition));
  auto compute = std::make_unique<ComputeStage>(view, partition_);
  compute_ = compute.get();
  stages.push_back(std::move(compute));
  sequence_ = std::make_unique<SteppedSequenceProcess>(std::move(stages));
}

void MstProcess::round(sim::NodeContext& ctx) { sequence_->round(ctx); }

bool MstProcess::finished() const { return sequence_->finished(); }

std::vector<EdgeId> MstProcess::mst_edges() const {
  std::vector<EdgeId> edges = compute_->marked_edges();
  if (partition_->tree_parent_edge() != kNoEdge) {
    edges.push_back(partition_->tree_parent_edge());
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

int MstProcess::phases_used() const { return compute_->phases_used(); }

}  // namespace mmn
