#include "core/partition_det.hpp"

#include "channel/capetanakis.hpp"
#include "coloring/mis.hpp"
#include "support/check.hpp"
#include "support/math.hpp"

namespace mmn {
namespace {

// Message types.  Every datum a node acts on arrives in one of these packets,
// in a GhsFragment tree packet (104-109, 111, 118-120; core/ghs_fragment.cpp)
// or in a channel slot; there are no oracle shortcuts.
constexpr std::uint16_t kCountReq = 101;    // core -> leaves
constexpr std::uint16_t kCountResp = 102;   // [size] leaves -> core
constexpr std::uint16_t kActiveInfo = 103;  // [active, level] core -> leaves
constexpr std::uint16_t kFChild = 110;      // border -> core: child attached
constexpr std::uint16_t kColorDown = 112;      // [color, is_root] in-tree
constexpr std::uint16_t kParentColor = 113;    // [color, is_root] across entry
constexpr std::uint16_t kParentColorUp = 114;  // gate -> core relay
constexpr std::uint16_t kChildDown = 115;      // [color] core -> gate
constexpr std::uint16_t kChildColor = 116;     // [color] across gate edge
constexpr std::uint16_t kChildColorUp = 117;   // border -> core relay
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
    : GhsFragment(view) {
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

void PartitionDetProcess::forward_down_and_across(sim::NodeContext& ctx,
                                                  sim::Word color,
                                                  sim::Word is_root) {
  send_to_children(ctx, sim::Packet(kColorDown, {color, is_root}));
  for (EdgeId edge : entry_edges_) {
    ctx.send(edge, sim::Packet(kParentColor, {color, is_root}));
  }
}

void PartitionDetProcess::start_color_exchange(sim::NodeContext& ctx,
                                               bool with_child_report) {
  if (!is_core()) return;
  forward_down_and_across(ctx, static_cast<sim::Word>(color_),
                          is_f_root() ? 1 : 0);
  if (with_child_report && !is_f_root()) {
    const auto color = static_cast<sim::Word>(color_);
    send_toward_gate(ctx, sim::Packet(kChildDown, {color}),
                     sim::Packet(kChildColor, {color}));
  }
}

void PartitionDetProcess::note_f_child(sim::NodeContext& ctx) {
  if (is_core()) {
    has_f_children_ = true;
  } else {
    send_to_parent(ctx, sim::Packet(kFChild));
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
      if (active_) begin_mwoe(ctx);
      break;
    case Sub::kConnectSend:
      begin_connect_send(ctx);
      break;
    case Sub::kConnectProc:
      // Inactive fragments found no MWOE, so they root F.
      begin_connect_proc(ctx, [&](EdgeId edge) {
        entry_edges_.push_back(edge);
        note_f_child(ctx);
      });
      break;
    case Sub::kCv:
      if (is_core()) {
        if (ref.index == 0) {
          color_ = fragment_id();  // distinct ids seed the coloring
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
      if (is_f_root()) {
        color_ = cv_update_root(color_);
      } else {
        MMN_ASSERT(parent_color_valid_, "missing parent color after CV step");
        color_ = cv_update(color_, parent_color_rx_);
      }
      break;
    case Sub::kShift:
      prev_color_ = color_;
      if (is_f_root()) {
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
            is_f_root() ? -1 : static_cast<int>(parent_color_rx_);
        MMN_ASSERT(is_f_root() || parent_color_valid_,
                   "missing parent color in drop");
        const int child_c =
            has_f_children_ ? static_cast<int>(prev_color_) : -1;
        color_ = static_cast<Color>(smallest_free_color(parent_c, child_c));
      }
      break;
    }
    case Sub::kRootRed:
      if (is_f_root()) {
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
      const bool parent_red = !is_f_root() && parent_color_rx_ == kRed;
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
  reset_phase();
  active_ = false;
  count_pending_ = 0;
  subtree_size_ = 1;
  entry_edges_.clear();
  has_f_children_ = false;
  parent_color_valid_ = false;
  any_red_child_ = false;
  red_internal_ = false;

  if (!is_core()) return;
  if (num_children() == 0) {
    level_ = 0;
    MMN_ASSERT(level_ >= current_phase_, "fragment below its phase level");
    active_ = (level_ == current_phase_);
  } else {
    count_pending_ = num_children();
    send_to_children(ctx, sim::Packet(kCountReq));
  }
}

// --- MERGE ---------------------------------------------------------------------

void PartitionDetProcess::begin_merge(sim::NodeContext& ctx) {
  if (!is_core()) return;
  apply_pending_color(SubRef{Sub::kMisGreen, current_phase_, 0});
  red_internal_ = color_ == kRed && has_f_children_;
  // Roots and red internal vertices keep their fragment; the rest attach.
  if (is_f_root() || red_internal_) return;
  MMN_ASSERT(have_mwoe(), "non-root fragment without an outgoing edge");
  attach(ctx);
}

// --- message handling ------------------------------------------------------------

void PartitionDetProcess::on_message(std::uint64_t /*step*/,
                                     const sim::Received& msg,
                                     sim::NodeContext& ctx) {
  const sim::Packet& p = msg.packet();
  switch (p.type()) {
    case kCountReq: {
      count_pending_ = num_children();
      subtree_size_ = 1;
      if (count_pending_ == 0) {
        send_to_parent(ctx, sim::Packet(kCountResp, {1}));
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
          const auto size = static_cast<sim::Word>(subtree_size_);
          send_to_parent(ctx, sim::Packet(kCountResp, {size}));
        }
      }
      break;
    }
    case kActiveInfo:
      active_ = p[0] != 0;
      level_ = static_cast<int>(p[1]);
      send_to_children(ctx, sim::Packet(kActiveInfo, {p[0], p[1]}));
      break;
    case kFChild:
      note_f_child(ctx);
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
        send_to_parent(ctx, sim::Packet(kParentColorUp, {p[0], p[1]}));
      }
      break;
    case kChildDown:
      send_toward_gate(ctx, sim::Packet(kChildDown, {p[0]}),
                       sim::Packet(kChildColor, {p[0]}));
      break;
    case kChildColor:
    case kChildColorUp:
      if (is_core()) {
        any_red_child_ = any_red_child_ || static_cast<Color>(p[0]) == kRed;
      } else {
        send_to_parent(ctx, sim::Packet(kChildColorUp, {p[0]}));
      }
      break;
    default:
      on_tree_message(msg, ctx);
  }
}

}  // namespace mmn
