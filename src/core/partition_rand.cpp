#include "core/partition_rand.hpp"

#include <algorithm>
#include <cmath>

#include "channel/pseudo_bayesian.hpp"
#include "support/check.hpp"
#include "support/math.hpp"

namespace mmn {
namespace {

constexpr std::uint16_t kGrowMsg = 141;      // [root, dist]
constexpr std::uint16_t kAttach = 142;       // new child on this edge
constexpr std::uint16_t kDetach = 143;       // child left this edge
constexpr std::uint16_t kRootInfo = 144;     // [root] advertised to neighbors
constexpr std::uint16_t kFreezeResp = 146;   // [sees_unlabeled] leaves -> root
constexpr std::uint16_t kFreezeSet = 147;    // [tree_frozen] root -> leaves
constexpr std::uint16_t kVerify = 148;       // Las Vegas root scheduling

}  // namespace

PartitionRandProcess::PartitionRandProcess(const sim::LocalView& view,
                                           PartitionRandConfig config)
    : view_(view),
      anonymous_(config.anonymous),
      my_id_(view.self),
      parent_(view.self),
      neighbor_root_(view.links().size(), kNoId) {
  MMN_REQUIRE(config.radius_factor >= config.freeze_factor,
              "growth radius must be at least the freeze threshold");
  const std::uint64_t basis = config.size_hint != 0 ? config.size_hint : view.n;
  const auto root_n = static_cast<std::uint32_t>(isqrt_ceil(basis));
  max_radius_ = config.radius_factor * root_n;
  freeze_threshold_ = config.freeze_factor * root_n;
  sqrt_n_ = std::sqrt(static_cast<double>(basis));
  // Iterations 0 .. k-1 where k is minimal with E_k >= sqrt(n); the final
  // iteration has head probability 1, so every node ends up labeled.
  int k = 1;
  while (exp_tower(k, 1e18) < sqrt_n_) ++k;
  iterations_ = k;
}

std::uint64_t PartitionRandProcess::num_steps() const {
  return static_cast<std::uint64_t>(iterations_) * 3;
}

StepSpec PartitionRandProcess::step_spec(std::uint64_t) const {
  return StepSpec{StepKind::kBarrier, 0};
}

bool PartitionRandProcess::has_unlabeled_neighbor() const {
  return std::any_of(neighbor_root_.begin(), neighbor_root_.end(),
                     [](std::uint64_t r) { return r == kNoId; });
}

void PartitionRandProcess::step_begin(std::uint64_t step,
                                      sim::NodeContext& ctx) {
  switch (sub_of(step)) {
    case Sub::kGrow:
      begin_grow(iteration_of(step), ctx);
      break;
    case Sub::kCommit:
      begin_commit(ctx);
      break;
    case Sub::kFreeze:
      begin_freeze(ctx);
      break;
  }
}

// --- GROW --------------------------------------------------------------------

void PartitionRandProcess::begin_grow(int iteration, sim::NodeContext& ctx) {
  if (anonymous_ && iteration == 0) {
    // Section 7.4: random bits mint ids when none are given.  63 bits keep
    // collisions negligible and the value non-negative on the wire.
    my_id_ = ctx.rng().next_u64() >> 1;
  }
  wave_set_ = false;
  wave_root_ = kNoId;
  wave_dist_ = kInfDist;
  wave_parent_edge_ = kNoEdge;
  cand_pending_ = false;
  if (frozen_) return;
  const double p =
      std::min(1.0, exp_tower(iteration + 1, 1e18) / std::max(1.0, sqrt_n_));
  if (ctx.rng().next_bernoulli(p)) {
    wave_set_ = true;
    wave_root_ = my_id_;
    wave_dist_ = 0;
    wave_parent_edge_ = kNoEdge;
    forward_wave(ctx);
  }
}

void PartitionRandProcess::forward_wave(sim::NodeContext& ctx) {
  if (wave_dist_ >= max_radius_) return;
  const sim::Packet grow(kGrowMsg, {static_cast<sim::Word>(wave_root_),
                                    static_cast<sim::Word>(wave_dist_)});
  const NeighborRange links = view_.links();
  for (std::size_t i = 0; i < links.size(); ++i) {
    const EdgeId edge = links[i].edge;
    if (edge == wave_parent_edge_) continue;  // the sender already has it
    // Paper's pruning: links internal to a tree but not tree links carry no
    // further waves.
    if (labeled() && neighbor_root_[i] == root_ && edge != parent_edge_ &&
        std::find(children_.begin(), children_.end(), edge) ==
            children_.end()) {
      continue;
    }
    ctx.send(edge, grow);
  }
}

void PartitionRandProcess::step_round(std::uint64_t step,
                                      sim::NodeContext& ctx) {
  if (sub_of(step) != Sub::kGrow) return;
  if (!cand_pending_ || wave_set_) {
    cand_pending_ = false;
    return;
  }
  // All of this round's wave offers are in; adopt the best and forward once.
  wave_set_ = true;
  wave_root_ = cand_root_;
  wave_dist_ = cand_dist_;
  wave_parent_edge_ = cand_edge_;
  cand_pending_ = false;
  if (wave_improves()) forward_wave(ctx);
}

// --- COMMIT ------------------------------------------------------------------

void PartitionRandProcess::begin_commit(sim::NodeContext& ctx) {
  if (!wave_set_ || !wave_improves()) return;
  if (parent_edge_ != kNoEdge) {
    ctx.send(parent_edge_, sim::Packet(kDetach));
  }
  root_ = wave_root_;
  dist_ = wave_dist_;
  if (wave_parent_edge_ == kNoEdge) {
    parent_ = view_.self;  // this node is the center
    parent_edge_ = kNoEdge;
  } else {
    const int idx = view_.link_index(wave_parent_edge_);
    parent_ = view_.links()[static_cast<std::size_t>(idx)].to;
    parent_edge_ = wave_parent_edge_;
    ctx.send(parent_edge_, sim::Packet(kAttach));
  }
  ctx.broadcast(sim::Packet(kRootInfo, {static_cast<sim::Word>(root_)}));
}

// --- FREEZE ------------------------------------------------------------------

void PartitionRandProcess::begin_freeze(sim::NodeContext& ctx) {
  if (!labeled()) return;
  // Leaf-initiated convergecast (saves the query pass): every leaf reports
  // immediately; internal nodes forward once all children reported.
  subtree_sees_unlabeled_ = has_unlabeled_neighbor();
  freeze_pending_ = static_cast<std::uint32_t>(children_.size());
  if (freeze_pending_ == 0) finish_freeze_query(ctx);
}

void PartitionRandProcess::finish_freeze_query(sim::NodeContext& ctx) {
  if (parent_ == view_.self) {
    const bool tree_frozen = !subtree_sees_unlabeled_;
    apply_freeze(tree_frozen);
    const sim::Packet set(kFreezeSet, {tree_frozen ? 1 : 0});
    for (EdgeId e : children_) ctx.send(e, set);
  } else {
    ctx.send(parent_edge_,
             sim::Packet(kFreezeResp, {subtree_sees_unlabeled_ ? 1 : 0}));
  }
}

void PartitionRandProcess::apply_freeze(bool tree_frozen) {
  frozen_ = frozen_ || tree_frozen || dist_ <= freeze_threshold_;
}

// --- messages ------------------------------------------------------------------

void PartitionRandProcess::on_message(std::uint64_t /*step*/,
                                      const sim::Received& msg,
                                      sim::NodeContext& ctx) {
  const sim::Packet& p = msg.packet();
  switch (p.type()) {
    case kGrowMsg: {
      const auto root = static_cast<std::uint64_t>(p[0]);
      const auto nd = static_cast<std::uint32_t>(p[1]) + 1;
      if (wave_set_ || nd > max_radius_) break;
      if (cand_pending_) {
        MMN_ASSERT(nd == cand_dist_, "synchronous waves must agree on depth");
        if (root < cand_root_) {
          cand_root_ = root;
          cand_edge_ = msg.via;
        }
      } else {
        cand_pending_ = true;
        cand_root_ = root;
        cand_dist_ = nd;
        cand_edge_ = msg.via;
      }
      break;
    }
    case kAttach:
      children_.push_back(msg.via);
      break;
    case kDetach: {
      const auto it = std::find(children_.begin(), children_.end(), msg.via);
      MMN_ASSERT(it != children_.end(), "detach from a non-child edge");
      children_.erase(it);
      break;
    }
    case kRootInfo: {
      const int idx = view_.link_index(msg.via);
      neighbor_root_[static_cast<std::size_t>(idx)] =
          static_cast<std::uint64_t>(p[0]);
      break;
    }
    case kFreezeResp:
      subtree_sees_unlabeled_ = subtree_sees_unlabeled_ || p[0] != 0;
      MMN_ASSERT(freeze_pending_ > 0, "unexpected freeze response");
      if (--freeze_pending_ == 0) finish_freeze_query(ctx);
      break;
    case kFreezeSet:
      apply_freeze(p[0] != 0);
      for (EdgeId e : children_) ctx.send(e, sim::Packet(kFreezeSet, {p[0]}));
      break;
    default:
      MMN_ASSERT(false, "unexpected packet type in randomized partition");
  }
}

// --- Las Vegas wrapper -----------------------------------------------------------

/// The verifier, once per engine: the scheduler over the tree roots, its slot
/// count and both budgets.  Its event is the verdict, accept or restart.
class LasVegasPartitionProcess::VerifyFold final : public sim::PublicFold {
 public:
  explicit VerifyFold(NodeId n)
      : max_roots_(2 * isqrt_ceil(n)),
        slot_budget_(16 * isqrt_ceil(n) + 64),
        scheduler_(static_cast<double>(max_roots_)) {}

  bool fold(const sim::SlotObservation& obs) override {
    const std::uint64_t before = scheduler_.success_count();
    scheduler_.observe(obs);
    counted_writer_ = scheduler_.success_count() != before ? obs.writer
                                                           : kNoNode;
    ++slots_;
    return ended();
  }

  const RandomizedScheduler& scheduler() const { return scheduler_; }
  /// Writer of the last folded slot if it was a counted success.
  NodeId counted_writer() const { return counted_writer_; }
  bool ended() const {
    return scheduler_.done() || too_many() || slots_ > slot_budget_;
  }
  bool accepted() const { return scheduler_.done() && !too_many(); }

 private:
  bool too_many() const { return scheduler_.success_count() > max_roots_; }

  std::uint64_t max_roots_;
  std::uint64_t slot_budget_;
  RandomizedScheduler scheduler_;
  std::uint64_t slots_ = 0;
  NodeId counted_writer_ = kNoNode;
};

LasVegasPartitionProcess::LasVegasPartitionProcess(const sim::LocalView& view,
                                                   PartitionRandConfig config)
    : view_(view),
      config_(config),
      inner_(std::make_unique<PartitionRandProcess>(view, config)) {}

void LasVegasPartitionProcess::round(sim::NodeContext& ctx) {
  if (accepted_) return;
  if (!inner_->finished()) {
    inner_->round(ctx);
    return;
  }

  // Verification: schedule the roots with the randomized protocol.  All
  // decisions below depend only on shared observations, so every node
  // accepts or restarts in the same round.
  if (verifier_ == nullptr) {
    // The first decision: every node takes the round's fold, which folds
    // this round's slot first.
    verifier_ =
        &ctx.public_fold<VerifyFold>([&] { return VerifyFold(view_.n); });
    pending_ = inner_->tree_parent() == view_.self;
  } else {
    if (pending_ && verifier_->counted_writer() == view_.self) pending_ = false;
    if (verifier_->ended()) {
      if (verifier_->accepted()) {
        accepted_ = true;
      } else {
        ++attempts_;
        inner_ = std::make_unique<PartitionRandProcess>(view_, config_);
        verifier_ = nullptr;
        inner_->round(ctx);
      }
      return;
    }
  }
  if (pending_ && verifier_->scheduler().station_transmits(ctx.rng())) {
    ctx.channel_write(
        sim::Packet(kVerify, {static_cast<sim::Word>(view_.self)}));
  }
}

}  // namespace mmn
