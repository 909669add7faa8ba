#include "core/partition_det.hpp"

#include <algorithm>

#include "channel/capetanakis.hpp"
#include "coloring/mis.hpp"
#include "support/check.hpp"
#include "support/math.hpp"

namespace mmn {
namespace {

// Message types.  Every datum a node acts on arrives in one of these packets
// (or in a channel slot); there are no oracle shortcuts.
constexpr std::uint16_t kCountReq = 101;    // core -> leaves
constexpr std::uint16_t kCountResp = 102;   // [size] leaves -> core
constexpr std::uint16_t kActiveInfo = 103;  // [active, level] core -> leaves
constexpr std::uint16_t kTest = 104;        // [core] probe a link
constexpr std::uint16_t kAccept = 105;      // different fragment
constexpr std::uint16_t kReject = 106;      // same fragment
constexpr std::uint16_t kReport = 107;      // [weight] convergecast (0 = none)
constexpr std::uint16_t kConnectDown = 108; // core -> gate along minpath
constexpr std::uint16_t kConnect = 109;     // [core] across the chosen edge
constexpr std::uint16_t kFChild = 110;      // border -> core: child attached
constexpr std::uint16_t kCycleWin = 111;    // border -> core: we root a cycle
constexpr std::uint16_t kColorDown = 112;      // [color, is_root] in-tree
constexpr std::uint16_t kParentColor = 113;    // [color, is_root] across entry
constexpr std::uint16_t kParentColorUp = 114;  // gate -> core relay
constexpr std::uint16_t kChildDown = 115;      // [color] core -> gate
constexpr std::uint16_t kChildColor = 116;     // [color] across gate edge
constexpr std::uint16_t kChildColorUp = 117;   // border -> core relay
constexpr std::uint16_t kFlip = 118;           // reverse minpath pointers
constexpr std::uint16_t kJoin = 119;           // child fragment attached here
constexpr std::uint16_t kNewFragMsg = 120;     // [core] new fragment id flood
constexpr std::uint16_t kSizeAnnounce = 121;   // [core, size] Section 7.3

}  // namespace

/// Section 7.3's size check, once per engine: the traversal scheduling the
/// cores, its slot count and the sum of the announced sizes.  Its event is
/// the check's end, completed or out of budget.
class PartitionDetProcess::CheckFold final : public sim::PublicFold {
 public:
  CheckFold(NodeId n, std::uint64_t budget) : resolver_(n), budget_(budget) {}

  bool fold(const sim::SlotObservation& obs) override {
    const std::uint64_t before = resolver_.success_count();
    resolver_.observe(obs);
    if (resolver_.success_count() != before) {
      size_sum_ += static_cast<std::uint64_t>(obs.payload[1]);
    }
    ++slots_;
    return ended();
  }

  const CapetanakisResolver& resolver() const { return resolver_; }
  bool ended() const { return resolver_.done() || slots_ >= budget_; }
  std::uint64_t size_sum() const { return size_sum_; }

 private:
  CapetanakisResolver resolver_;
  std::uint64_t budget_;
  std::uint64_t slots_ = 0;
  std::uint64_t size_sum_ = 0;
};

PartitionDetProcess::PartitionDetProcess(const sim::LocalView& view,
                                         PartitionDetConfig config)
    : view_(view),
      core_(view.self),
      parent_(view.self),
      link_internal_(view.links().size(), false) {
  phases_ = config.phases < 0 ? partition_phases(view.n) : config.phases;
  // Levels grow by one per phase until a fragment spans the whole graph at
  // level floor(log2 n); phases beyond that would stall below their level.
  MMN_REQUIRE(view.n == 1 || phases_ <= ilog2_floor(view.n) + 1,
              "phase count beyond full merge");
  bits_ = view.n <= 2 ? 1 : ilog2_ceil(view.n);
  tcv_ = cole_vishkin_iterations(bits_);
  with_size_check_ = config.with_size_check;
  if (view.n == 1) computed_size_ = 1;  // nothing to schedule
}

std::uint64_t PartitionDetProcess::num_steps() const {
  if (final_steps_) return *final_steps_;
  return static_cast<std::uint64_t>(phases_) * steps_per_phase();
}

StepSpec PartitionDetProcess::step_spec(std::uint64_t step) const {
  if (locate(step).sub == Sub::kSizeCheck) {
    return StepSpec{StepKind::kObserved, 0};
  }
  return StepSpec{StepKind::kBarrier, 0};
}

PartitionDetProcess::SubRef PartitionDetProcess::locate(
    std::uint64_t step) const {
  SubRef ref;
  ref.phase = static_cast<int>(step / steps_per_phase());
  int sub = static_cast<int>(step % steps_per_phase());
  ref.index = 0;
  if (sub == 0) {
    ref.sub = Sub::kCount;
    return ref;
  }
  --sub;
  if (with_size_check_) {
    if (sub == 0) {
      ref.sub = Sub::kSizeCheck;
      return ref;
    }
    --sub;
  }
  if (sub < 3) {
    ref.sub = static_cast<Sub>(static_cast<int>(Sub::kMwoe) + sub);
    return ref;
  }
  sub -= 3;
  if (sub < tcv_) {
    ref.sub = Sub::kCv;
    ref.index = sub;
    return ref;
  }
  sub -= tcv_;
  if (sub < 6) {
    ref.sub = (sub % 2 == 0) ? Sub::kShift : Sub::kDrop;
    ref.index = sub / 2;  // 0 -> drop color 5, 1 -> 4, 2 -> 3
    return ref;
  }
  sub -= 6;
  switch (sub) {
    case 0: ref.sub = Sub::kRootRed; break;
    case 1: ref.sub = Sub::kMisBlue; break;
    case 2: ref.sub = Sub::kMisGreen; break;
    case 3: ref.sub = Sub::kMerge; break;
    default:
      MMN_ASSERT(sub == 4, "sub-step index out of range");
      ref.sub = Sub::kNewFrag;
      break;
  }
  return ref;
}

std::uint64_t PartitionDetProcess::computed_size() const {
  MMN_REQUIRE(with_size_check_, "size check was not enabled");
  MMN_REQUIRE(finished(), "partition still running");
  MMN_ASSERT(computed_size_ != 0, "size check never completed");
  return computed_size_;
}

// --- helpers ---------------------------------------------------------------

void PartitionDetProcess::send_to_children(sim::NodeContext& ctx,
                                           const sim::Packet& packet) {
  for (EdgeId e : children_) ctx.send(e, packet);
}

void PartitionDetProcess::remove_child(EdgeId edge) {
  const auto it = std::find(children_.begin(), children_.end(), edge);
  MMN_ASSERT(it != children_.end(), "removing a non-child edge");
  children_.erase(it);
}

void PartitionDetProcess::relay_up(sim::NodeContext& ctx,
                                   const sim::Packet& packet) {
  MMN_ASSERT(!is_core(), "relay_up called at the core");
  ctx.send(parent_edge_, packet);
}

void PartitionDetProcess::forward_down_and_across(sim::NodeContext& ctx,
                                                  sim::Word color,
                                                  sim::Word is_root) {
  send_to_children(ctx, sim::Packet(kColorDown, {color, is_root}));
  for (const auto& [edge, child_core] : entry_edges_) {
    (void)child_core;
    ctx.send(edge, sim::Packet(kParentColor, {color, is_root}));
  }
}

void PartitionDetProcess::start_color_exchange(sim::NodeContext& ctx,
                                               bool with_child_report) {
  if (!is_core()) return;
  forward_down_and_across(ctx, static_cast<sim::Word>(color_),
                          is_f_root_ ? 1 : 0);
  if (with_child_report && !is_f_root_) {
    send_child_report_toward_gate(ctx);
  }
}

void PartitionDetProcess::send_child_report_toward_gate(
    sim::NodeContext& ctx) {
  const auto payload = static_cast<sim::Word>(color_);
  if (best_child_edge_ == kNoEdge) {
    MMN_ASSERT(gate_edge_ != kNoEdge, "core gate without a gate edge");
    ctx.send(gate_edge_, sim::Packet(kChildColor, {payload}));
  } else {
    ctx.send(best_child_edge_, sim::Packet(kChildDown, {payload}));
  }
}

// --- step dispatch -----------------------------------------------------------

void PartitionDetProcess::step_begin(std::uint64_t step,
                                     sim::NodeContext& ctx) {
  const SubRef ref = locate(step);
  current_phase_ = ref.phase;
  switch (ref.sub) {
    case Sub::kCount:
      begin_count(ctx);
      break;
    case Sub::kSizeCheck: {
      // Budget: "resolution for 2^i rounds" (Section 7.3), each of O(log id)
      // slots.  The last phase must succeed (at most 2^i fragments remain by
      // then), so it runs the traversal to completion.
      const bool last = current_phase_ + 1 == phases_;
      const std::uint64_t budget =
          last ? static_cast<std::uint64_t>(-1)
               : (std::uint64_t{4} << current_phase_) *
                     static_cast<std::uint64_t>(bits_ + 3);
      // Every node begins the check in the same round, so all share one
      // fold; only the cores contend.
      check_fold_ = &ctx.public_fold<CheckFold>(
          [&] { return CheckFold(view_.n, budget); });
      check_pending_ = is_core();
      break;
    }
    case Sub::kMwoe:
      begin_mwoe(ctx);
      break;
    case Sub::kConnectSend:
      begin_connect_send(ctx);
      break;
    case Sub::kConnectProc:
      begin_connect_proc(ctx);
      break;
    case Sub::kCv:
      if (is_core()) {
        if (ref.index == 0) {
          color_ = core_;  // distinct ids seed the coloring
        } else {
          apply_pending_color(locate(step - 1));
        }
        parent_color_valid_ = false;
      }
      start_color_exchange(ctx, /*with_child_report=*/false);
      break;
    case Sub::kShift:
    case Sub::kDrop:
    case Sub::kRootRed:
      if (is_core()) {
        apply_pending_color(locate(step - 1));
        parent_color_valid_ = false;
      }
      start_color_exchange(ctx, /*with_child_report=*/false);
      break;
    case Sub::kMisBlue:
    case Sub::kMisGreen:
      if (is_core()) {
        apply_pending_color(locate(step - 1));
        parent_color_valid_ = false;
        any_red_child_ = false;
      }
      start_color_exchange(ctx, /*with_child_report=*/true);
      break;
    case Sub::kMerge:
      begin_merge(ctx);
      break;
    case Sub::kNewFrag:
      begin_newfrag(ctx);
      break;
  }
}

void PartitionDetProcess::apply_pending_color(const SubRef& prev) {
  switch (prev.sub) {
    case Sub::kCv:
      if (is_f_root_) {
        color_ = cv_update_root(color_);
      } else {
        MMN_ASSERT(parent_color_valid_, "missing parent color after CV step");
        color_ = cv_update(color_, parent_color_rx_);
      }
      break;
    case Sub::kShift:
      prev_color_ = color_;
      if (is_f_root_) {
        color_ = static_cast<Color>(smallest_free_color(
            static_cast<int>(color_), static_cast<int>(color_)));
      } else {
        MMN_ASSERT(parent_color_valid_, "missing parent color in shift");
        color_ = parent_color_rx_;
      }
      break;
    case Sub::kDrop: {
      const Color dropped = static_cast<Color>(5 - prev.index);
      if (color_ == dropped) {
        const int parent_c =
            is_f_root_ ? -1 : static_cast<int>(parent_color_rx_);
        MMN_ASSERT(is_f_root_ || parent_color_valid_,
                   "missing parent color in drop");
        const int child_c =
            has_f_children_ ? static_cast<int>(prev_color_) : -1;
        color_ = static_cast<Color>(smallest_free_color(parent_c, child_c));
      }
      break;
    }
    case Sub::kRootRed:
      if (is_f_root_) {
        color_ = kRed;
      } else {
        MMN_ASSERT(parent_color_valid_, "missing parent color in root-red");
        if (parent_is_root_rx_) {
          color_ = parent_color_rx_ == kRed
                       ? static_cast<Color>(smallest_free_color(
                             static_cast<int>(kRed), static_cast<int>(color_)))
                       : parent_color_rx_;
        } else {
          color_ = parent_color_rx_;
        }
      }
      break;
    case Sub::kMisBlue:
    case Sub::kMisGreen: {
      const Color pass = prev.sub == Sub::kMisBlue ? kBlue : kGreen;
      const bool parent_red = !is_f_root_ && parent_color_rx_ == kRed;
      if (color_ == pass && !parent_red && !any_red_child_) color_ = kRed;
      break;
    }
    default:
      MMN_ASSERT(false, "no pending color action for this step");
  }
}

// --- Section 7.3 size check ----------------------------------------------------

void PartitionDetProcess::step_round(std::uint64_t step,
                                     sim::NodeContext& ctx) {
  if (locate(step).sub != Sub::kSizeCheck) return;
  if (check_pending_ &&
      check_fold_->resolver().station_transmits(view_.self)) {
    ctx.channel_write(sim::Packet(
        kSizeAnnounce, {static_cast<sim::Word>(view_.self),
                        static_cast<sim::Word>(subtree_size_)}));
  }
}

void PartitionDetProcess::on_slot(std::uint64_t slot_step,
                                  const sim::SlotObservation& obs,
                                  sim::NodeContext&) {
  if (locate(slot_step).sub != Sub::kSizeCheck) return;
  // A pending core is stepped every round, so it sees its own success.
  if (obs.success() && obs.writer == view_.self) check_pending_ = false;
  if (check_fold_->resolver().done()) {
    // Every core's (id, size) was heard by every node: the exact n.
    computed_size_ = check_fold_->size_sum();
    final_steps_ = slot_step + 1;
  }
}

// Out of budget means too many fragments: keep partitioning.
bool PartitionDetProcess::observed_end(std::uint64_t step) const {
  MMN_ASSERT(locate(step).sub == Sub::kSizeCheck, "unexpected observed step");
  return check_fold_->ended();
}

// Only a pending core acts in the check; everyone else dozes until its end.
bool PartitionDetProcess::step_dormant(std::uint64_t) const {
  return !check_pending_;
}

// --- COUNT -------------------------------------------------------------------

void PartitionDetProcess::begin_count(sim::NodeContext& ctx) {
  // Per-phase reset.
  active_ = false;
  count_pending_ = 0;
  subtree_size_ = 1;
  probe_index_ = 0;
  probe_resolved_ = false;
  cand_weight_ = 0;
  cand_edge_ = kNoEdge;
  report_pending_ = 0;
  best_weight_ = 0;
  best_child_edge_ = kNoEdge;
  report_sent_ = false;
  have_mwoe_ = false;
  gate_edge_ = kNoEdge;
  pending_connects_.clear();
  entry_edges_.clear();
  is_f_root_ = false;
  has_f_children_ = false;
  parent_color_valid_ = false;
  any_red_child_ = false;
  red_internal_ = false;

  if (!is_core()) return;
  if (children_.empty()) {
    level_ = 0;
    MMN_ASSERT(level_ >= current_phase_, "fragment below its phase level");
    active_ = (level_ == current_phase_);
  } else {
    count_pending_ = static_cast<std::uint32_t>(children_.size());
    send_to_children(ctx, sim::Packet(kCountReq));
  }
}

// --- MWOE ---------------------------------------------------------------------

void PartitionDetProcess::begin_mwoe(sim::NodeContext& ctx) {
  if (!active_) return;
  report_pending_ = static_cast<std::uint32_t>(children_.size());
  probe_next_link(ctx);
  maybe_send_report(ctx);
}

void PartitionDetProcess::probe_next_link(sim::NodeContext& ctx) {
  const NeighborRange links = view_.links();
  while (probe_index_ < links.size()) {
    if (link_internal_[probe_index_]) {
      ++probe_index_;
      continue;
    }
    ctx.send(links[probe_index_].edge,
             sim::Packet(kTest, {static_cast<sim::Word>(core_)}));
    return;
  }
  probe_resolved_ = true;  // no outgoing link from this node
}

void PartitionDetProcess::maybe_send_report(sim::NodeContext& ctx) {
  if (!active_ || report_sent_ || !probe_resolved_ || report_pending_ != 0) {
    return;
  }
  if (cand_weight_ != 0 &&
      (best_weight_ == 0 || cand_weight_ < best_weight_)) {
    best_weight_ = cand_weight_;
    best_child_edge_ = kNoEdge;  // the fragment MWOE hangs off this node
  }
  report_sent_ = true;
  if (is_core()) {
    have_mwoe_ = best_weight_ != 0;
  } else {
    relay_up(ctx, sim::Packet(kReport, {static_cast<sim::Word>(best_weight_)}));
  }
}

// --- CONNECT -----------------------------------------------------------------

void PartitionDetProcess::begin_connect_send(sim::NodeContext& ctx) {
  if (!is_core() || !active_ || !have_mwoe_) return;
  if (best_child_edge_ == kNoEdge) {
    gate_edge_ = cand_edge_;
    ctx.send(gate_edge_, sim::Packet(kConnect, {static_cast<sim::Word>(core_)}));
  } else {
    ctx.send(best_child_edge_, sim::Packet(kConnectDown));
  }
}

void PartitionDetProcess::begin_connect_proc(sim::NodeContext& ctx) {
  if (is_core() && (!active_ || !have_mwoe_)) {
    is_f_root_ = true;  // inactive fragments and MWOE-less fragments root F
  }
  for (const auto& [edge, child_core] : pending_connects_) {
    process_connect(ctx, edge, child_core);
  }
  pending_connects_.clear();
}

void PartitionDetProcess::process_connect(sim::NodeContext& ctx, EdgeId edge,
                                          NodeId child_core) {
  if (edge == gate_edge_) {
    // Both fragments chose this edge (the only possible cycle in F).  The
    // fragment with the higher core id roots the tree and keeps the other as
    // its child; the lower one keeps its out-edge as a normal F-child.
    if (core_ > child_core) {
      entry_edges_.push_back({edge, child_core});
      if (is_core()) {
        has_f_children_ = true;
        is_f_root_ = true;
      } else {
        relay_up(ctx, sim::Packet(kFChild));
        relay_up(ctx, sim::Packet(kCycleWin));
      }
    }
    return;
  }
  entry_edges_.push_back({edge, child_core});
  if (is_core()) {
    has_f_children_ = true;
  } else {
    relay_up(ctx, sim::Packet(kFChild));
  }
}

// --- MERGE ---------------------------------------------------------------------

void PartitionDetProcess::begin_merge(sim::NodeContext& ctx) {
  if (!is_core()) return;
  apply_pending_color(SubRef{Sub::kMisGreen, current_phase_, 0});
  red_internal_ = color_ == kRed && has_f_children_;
  const bool keep_out_edge = !is_f_root_ && !red_internal_;
  if (!keep_out_edge) return;
  MMN_ASSERT(have_mwoe_, "non-root fragment without an outgoing edge");
  if (best_child_edge_ == kNoEdge) {
    // The core itself owns the chosen edge: attach directly.
    MMN_ASSERT(gate_edge_ != kNoEdge, "gate edge missing at the core");
    const int idx = view_.link_index(gate_edge_);
    parent_ = view_.links()[static_cast<std::size_t>(idx)].to;
    parent_edge_ = gate_edge_;
    link_internal_[static_cast<std::size_t>(idx)] = true;
    ctx.send(gate_edge_, sim::Packet(kJoin));
  } else {
    const EdgeId down = best_child_edge_;
    const int idx = view_.link_index(down);
    parent_ = view_.links()[static_cast<std::size_t>(idx)].to;
    parent_edge_ = down;
    remove_child(down);
    ctx.send(down, sim::Packet(kFlip));
  }
}

void PartitionDetProcess::begin_newfrag(sim::NodeContext& ctx) {
  if (!is_core()) return;
  MMN_ASSERT(core_ == view_.self, "core id must equal the core's node id");
  send_to_children(ctx, sim::Packet(kNewFragMsg, {static_cast<sim::Word>(core_)}));
}

// --- message handling ------------------------------------------------------------

void PartitionDetProcess::on_message(std::uint64_t /*step*/,
                                     const sim::Received& msg,
                                     sim::NodeContext& ctx) {
  const sim::Packet& p = msg.packet();
  switch (p.type()) {
    case kCountReq: {
      count_pending_ = static_cast<std::uint32_t>(children_.size());
      subtree_size_ = 1;
      if (count_pending_ == 0) {
        relay_up(ctx, sim::Packet(kCountResp, {1}));
      } else {
        send_to_children(ctx, sim::Packet(kCountReq));
      }
      break;
    }
    case kCountResp: {
      subtree_size_ += static_cast<std::uint64_t>(p[0]);
      MMN_ASSERT(count_pending_ > 0, "unexpected count response");
      if (--count_pending_ == 0) {
        if (is_core()) {
          level_ = ilog2_floor(subtree_size_);
          MMN_ASSERT(level_ >= current_phase_, "fragment below its phase level");
          active_ = (level_ == current_phase_);
          send_to_children(ctx, sim::Packet(kActiveInfo,
                                            {active_ ? 1 : 0, level_}));
        } else {
          relay_up(ctx, sim::Packet(kCountResp,
                                    {static_cast<sim::Word>(subtree_size_)}));
        }
      }
      break;
    }
    case kActiveInfo:
      active_ = p[0] != 0;
      level_ = static_cast<int>(p[1]);
      send_to_children(ctx, sim::Packet(kActiveInfo, {p[0], p[1]}));
      break;
    case kTest: {
      const NodeId sender_core = static_cast<NodeId>(p[0]);
      if (sender_core == core_) {
        const int idx = view_.link_index(msg.via);
        link_internal_[static_cast<std::size_t>(idx)] = true;
        ctx.send(msg.via, sim::Packet(kReject));
      } else {
        ctx.send(msg.via, sim::Packet(kAccept));
      }
      break;
    }
    case kReject: {
      const int idx = view_.link_index(msg.via);
      link_internal_[static_cast<std::size_t>(idx)] = true;
      ++probe_index_;
      probe_next_link(ctx);
      maybe_send_report(ctx);
      break;
    }
    case kAccept: {
      probe_resolved_ = true;
      cand_edge_ = msg.via;
      const int idx = view_.link_index(msg.via);
      cand_weight_ = view_.links()[static_cast<std::size_t>(idx)].weight;
      maybe_send_report(ctx);
      break;
    }
    case kReport: {
      const Weight w = static_cast<Weight>(p[0]);
      if (w != 0 && (best_weight_ == 0 || w < best_weight_)) {
        best_weight_ = w;
        best_child_edge_ = msg.via;
      }
      MMN_ASSERT(report_pending_ > 0, "unexpected MWOE report");
      --report_pending_;
      maybe_send_report(ctx);
      break;
    }
    case kConnectDown:
      if (best_child_edge_ == kNoEdge) {
        MMN_ASSERT(cand_edge_ != kNoEdge, "gate without a candidate edge");
        gate_edge_ = cand_edge_;
        ctx.send(gate_edge_,
                 sim::Packet(kConnect, {static_cast<sim::Word>(core_)}));
      } else {
        ctx.send(best_child_edge_, sim::Packet(kConnectDown));
      }
      break;
    case kConnect:
      pending_connects_.push_back({msg.via, static_cast<NodeId>(p[0])});
      break;
    case kFChild:
      if (is_core()) {
        has_f_children_ = true;
      } else {
        relay_up(ctx, sim::Packet(kFChild));
      }
      break;
    case kCycleWin:
      if (is_core()) {
        is_f_root_ = true;
      } else {
        relay_up(ctx, sim::Packet(kCycleWin));
      }
      break;
    case kColorDown:
      forward_down_and_across(ctx, p[0], p[1]);
      break;
    case kParentColor:
    case kParentColorUp:
      if (is_core()) {
        parent_color_rx_ = static_cast<Color>(p[0]);
        parent_is_root_rx_ = p[1] != 0;
        parent_color_valid_ = true;
      } else {
        relay_up(ctx, sim::Packet(kParentColorUp, {p[0], p[1]}));
      }
      break;
    case kChildDown:
      if (best_child_edge_ == kNoEdge) {
        MMN_ASSERT(gate_edge_ != kNoEdge, "gate without a gate edge");
        ctx.send(gate_edge_, sim::Packet(kChildColor, {p[0]}));
      } else {
        ctx.send(best_child_edge_, sim::Packet(kChildDown, {p[0]}));
      }
      break;
    case kChildColor:
    case kChildColorUp:
      if (is_core()) {
        any_red_child_ = any_red_child_ || static_cast<Color>(p[0]) == kRed;
      } else {
        relay_up(ctx, sim::Packet(kChildColorUp, {p[0]}));
      }
      break;
    case kFlip: {
      children_.push_back(msg.via);  // the old parent becomes a child
      if (best_child_edge_ == kNoEdge) {
        MMN_ASSERT(gate_edge_ != kNoEdge, "flip reached a non-gate endpoint");
        const int idx = view_.link_index(gate_edge_);
        parent_ = view_.links()[static_cast<std::size_t>(idx)].to;
        parent_edge_ = gate_edge_;
        link_internal_[static_cast<std::size_t>(idx)] = true;
        ctx.send(gate_edge_, sim::Packet(kJoin));
      } else {
        const EdgeId down = best_child_edge_;
        const int idx = view_.link_index(down);
        parent_ = view_.links()[static_cast<std::size_t>(idx)].to;
        parent_edge_ = down;
        remove_child(down);
        ctx.send(down, sim::Packet(kFlip));
      }
      break;
    }
    case kJoin: {
      children_.push_back(msg.via);
      const int idx = view_.link_index(msg.via);
      link_internal_[static_cast<std::size_t>(idx)] = true;
      break;
    }
    case kNewFragMsg:
      core_ = static_cast<NodeId>(p[0]);
      send_to_children(ctx, sim::Packet(kNewFragMsg, {p[0]}));
      break;
    default:
      MMN_ASSERT(false, "unexpected packet type in partition");
  }
}

}  // namespace mmn
