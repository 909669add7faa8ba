#include "core/ghs_fragment.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace mmn {
namespace {

// Message types.  The deterministic partition's own types
// (core/partition_det.cpp) fill the gaps of this range.
constexpr std::uint16_t kTest = 104;         // [core] probe a link
constexpr std::uint16_t kAccept = 105;       // different fragment
constexpr std::uint16_t kReject = 106;       // same fragment
constexpr std::uint16_t kReport = 107;       // [weight] convergecast (0 = none)
constexpr std::uint16_t kConnectDown = 108;  // core -> gate along minpath
constexpr std::uint16_t kConnect = 109;      // [core] across the chosen edge
constexpr std::uint16_t kCycleWin = 111;     // border -> core: we root a cycle
constexpr std::uint16_t kFlip = 118;         // reverse minpath pointers
constexpr std::uint16_t kJoin = 119;         // child fragment attached here
constexpr std::uint16_t kNewFragMsg = 120;   // [core] new fragment id flood

}  // namespace

GhsFragment::GhsFragment(const sim::LocalView& view)
    : view_(view),
      core_(view.self),
      parent_(view.self),
      link_internal_(view.links().size(), false) {}

// --- tree helpers -------------------------------------------------------------

void GhsFragment::send_to_children(sim::NodeContext& ctx,
                                   const sim::Packet& packet) const {
  for (EdgeId e : children_) ctx.send(e, packet);
}

void GhsFragment::send_to_parent(sim::NodeContext& ctx,
                                 const sim::Packet& packet) const {
  MMN_ASSERT(!is_core(), "send_to_parent called at the core");
  ctx.send(parent_edge_, packet);
}

void GhsFragment::send_toward_gate(sim::NodeContext& ctx,
                                   const sim::Packet& down,
                                   const sim::Packet& across) const {
  if (best_child_edge_ == kNoEdge) {
    MMN_ASSERT(gate_edge_ != kNoEdge, "gate without a gate edge");
    ctx.send(gate_edge_, across);
  } else {
    ctx.send(best_child_edge_, down);
  }
}

void GhsFragment::set_parent(EdgeId edge) {
  const int idx = view_.link_index(edge);
  parent_ = view_.links()[static_cast<std::size_t>(idx)].to;
  parent_edge_ = edge;
}

void GhsFragment::mark_internal(EdgeId edge) {
  const int idx = view_.link_index(edge);
  link_internal_[static_cast<std::size_t>(idx)] = true;
}

void GhsFragment::remove_child(EdgeId edge) {
  const auto it = std::find(children_.begin(), children_.end(), edge);
  MMN_ASSERT(it != children_.end(), "removing a non-child edge");
  children_.erase(it);
}

// --- MWOE ---------------------------------------------------------------------

void GhsFragment::reset_phase() {
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
  is_f_root_ = false;
}

void GhsFragment::begin_mwoe(sim::NodeContext& ctx) {
  report_pending_ = num_children();
  probe_next_link(ctx);
  maybe_send_report(ctx);
}

void GhsFragment::probe_next_link(sim::NodeContext& ctx) {
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

// Only a node that began the MWOE step resolves its probe, and only its
// children report to it, so a fragment that does not probe never reports.
void GhsFragment::maybe_send_report(sim::NodeContext& ctx) {
  if (report_sent_ || !probe_resolved_ || report_pending_ != 0) return;
  if (cand_weight_ != 0 &&
      (best_weight_ == 0 || cand_weight_ < best_weight_)) {
    best_weight_ = cand_weight_;
    best_child_edge_ = kNoEdge;  // the fragment MWOE hangs off this node
  }
  report_sent_ = true;
  if (is_core()) {
    have_mwoe_ = best_weight_ != 0;
  } else {
    send_to_parent(ctx,
                   sim::Packet(kReport, {static_cast<sim::Word>(best_weight_)}));
  }
}

// --- CONNECT / ATTACH / NEW_FRAG -------------------------------------------------

void GhsFragment::begin_connect_send(sim::NodeContext& ctx) {
  if (is_core() && have_mwoe_) route_connect(ctx);
}

void GhsFragment::route_connect(sim::NodeContext& ctx) {
  if (best_child_edge_ == kNoEdge) {
    MMN_ASSERT(cand_edge_ != kNoEdge, "gate without a candidate edge");
    gate_edge_ = cand_edge_;
  }
  send_toward_gate(ctx, sim::Packet(kConnectDown),
                   sim::Packet(kConnect, {static_cast<sim::Word>(core_)}));
}

void GhsFragment::win_cycle(sim::NodeContext& ctx) {
  if (is_core()) {
    is_f_root_ = true;
  } else {
    send_to_parent(ctx, sim::Packet(kCycleWin));
  }
}

void GhsFragment::attach(sim::NodeContext& ctx) {
  if (best_child_edge_ == kNoEdge) {
    // This node owns the chosen edge: join the other fragment across it.
    MMN_ASSERT(gate_edge_ != kNoEdge, "attach at a node without a gate edge");
    set_parent(gate_edge_);
    mark_internal(gate_edge_);
    ctx.send(gate_edge_, sim::Packet(kJoin));
  } else {
    // The minpath child becomes the parent; FLIP carries on toward the gate.
    const EdgeId down = best_child_edge_;
    set_parent(down);
    remove_child(down);
    ctx.send(down, sim::Packet(kFlip));
  }
}

void GhsFragment::begin_newfrag(sim::NodeContext& ctx) {
  if (!is_core()) return;
  MMN_ASSERT(core_ == view_.self, "core id must equal the core's node id");
  send_to_children(ctx,
                   sim::Packet(kNewFragMsg, {static_cast<sim::Word>(core_)}));
}

// --- message handling ------------------------------------------------------------

void GhsFragment::on_tree_message(const sim::Received& msg,
                                  sim::NodeContext& ctx) {
  const sim::Packet& p = msg.packet();
  switch (p.type()) {
    case kTest:
      if (static_cast<NodeId>(p[0]) == core_) {
        mark_internal(msg.via);
        ctx.send(msg.via, sim::Packet(kReject));
      } else {
        ctx.send(msg.via, sim::Packet(kAccept));
      }
      break;
    case kReject:
      mark_internal(msg.via);
      ++probe_index_;
      probe_next_link(ctx);
      maybe_send_report(ctx);
      break;
    case kAccept:
      probe_resolved_ = true;
      cand_edge_ = msg.via;
      cand_weight_ =
          view_.links()[static_cast<std::size_t>(view_.link_index(msg.via))]
              .weight;
      maybe_send_report(ctx);
      break;
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
      route_connect(ctx);
      break;
    case kConnect:
      pending_connects_.push_back({msg.via, static_cast<NodeId>(p[0])});
      break;
    case kCycleWin:
      win_cycle(ctx);
      break;
    case kFlip:
      children_.push_back(msg.via);  // the old parent becomes a child
      attach(ctx);
      break;
    case kJoin:
      children_.push_back(msg.via);
      mark_internal(msg.via);
      break;
    case kNewFragMsg:
      core_ = static_cast<NodeId>(p[0]);
      send_to_children(ctx, sim::Packet(kNewFragMsg, {p[0]}));
      break;
    default:
      MMN_ASSERT(false, "unexpected packet type in a fragment tree");
  }
}

}  // namespace mmn
