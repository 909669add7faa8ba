// GHS fragment trees: the state and messages of one Borůvka-style phase.
//
// The deterministic partition (Section 3, core/partition_det.hpp) and the
// point-to-point MST baseline (Section 6, baselines/p2p_mst.hpp) grow the
// same kind of fragment: a rooted subtree of the minimum spanning tree,
// named by the node id of its root, the core.  A phase of either is the same
// sequence of GHS moves:
//
//   MWOE      — every node probes its non-internal links in ascending weight
//               order with TEST/ACCEPT/REJECT; a REPORT convergecast brings
//               the fragment's minimum-weight outgoing edge to the core and
//               leaves a minpath pointer (the child the minimum came from)
//               at every node on the way.
//   CONNECT   — the core routes CONNECT_DOWN along the minpath to the gate,
//               the node owning the chosen edge, which sends CONNECT across
//               it; the receiving node queues it.  The chosen edges form the
//               fragment graph F.  Two fragments choosing the same edge form
//               its only possible cycle; the higher core id roots it
//               (CYCLE_WIN travels up to that core).
//   ATTACH    — a merging fragment reverses the parent pointers along its
//               minpath (FLIP) and the gate joins the other side (JOIN).
//   NEW_FRAG  — every core floods its id down the merged tree.
//
// GhsFragment holds the tree and the per-phase state and handles all of
// these messages.  A protocol derives from it and keeps only its step
// schedule (channel barriers, or fixed Θ(n)-round phases) and its merge
// policy: which fragments probe, and which of those attach.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/partition.hpp"
#include "sim/engine.hpp"

namespace mmn {

class GhsFragment : public FragmentState {
 public:
  // FragmentState (valid once the driving protocol finished):
  NodeId tree_parent() const override { return parent_; }
  EdgeId tree_parent_edge() const override { return parent_edge_; }
  NodeId fragment_id() const override { return core_; }

 protected:
  explicit GhsFragment(const sim::LocalView& view);

  bool is_core() const { return parent_ == view_.self; }
  std::uint32_t num_children() const {
    return static_cast<std::uint32_t>(children_.size());
  }
  /// At the core, once the convergecast completed: the fragment has an
  /// outgoing edge.
  bool have_mwoe() const { return have_mwoe_; }
  /// At the core, once the CONNECTs were processed: the fragment roots its
  /// tree of F (it has no outgoing edge, or it won a cycle).
  bool is_f_root() const { return is_f_root_; }

  void send_to_children(sim::NodeContext& ctx, const sim::Packet& packet) const;
  /// Relays a packet one hop up the tree; never called at the core.
  void send_to_parent(sim::NodeContext& ctx, const sim::Packet& packet) const;
  /// One hop from the core toward the other fragment along the minpath:
  /// `down` to the minpath child, or `across` the chosen edge at the gate.
  void send_toward_gate(sim::NodeContext& ctx, const sim::Packet& down,
                        const sim::Packet& across) const;

  // --- one phase, in order ---------------------------------------------------

  /// Clears the per-phase state (MWOE, minpath, gate, queued CONNECTs, F-root).
  void reset_phase();
  /// Starts probing and the convergecast; called at every node of a
  /// probing fragment in the same round.
  void begin_mwoe(sim::NodeContext& ctx);
  /// At a core that found an MWOE: sends the CONNECT toward the gate.
  void begin_connect_send(sim::NodeContext& ctx);
  /// Processes the CONNECTs queued at this node: an MWOE-less core roots
  /// F; every fragment that attaches here is passed to on_f_child(edge) (the
  /// lower core id of a cycle is not), and a cycle won here is reported to
  /// the core.
  template <typename OnFChild>
  void begin_connect_proc(sim::NodeContext& ctx, OnFChild&& on_f_child) {
    if (is_core() && !have_mwoe_) is_f_root_ = true;
    for (const auto& [edge, child_core] : pending_connects_) {
      // Both fragments chose this edge: the higher core id roots the cycle
      // and keeps the other as its F-child.
      const bool cycle = edge == gate_edge_;
      if (cycle && core_ < child_core) continue;
      on_f_child(edge);
      if (cycle) win_cycle(ctx);
    }
    pending_connects_.clear();
  }
  /// At the core of a fragment that merges: re-points the parent pointers
  /// along the minpath toward the gate, which joins the other fragment.
  void attach(sim::NodeContext& ctx);
  /// At every core: floods the fragment id down the merged tree.
  void begin_newfrag(sim::NodeContext& ctx);

  /// Handles one TEST/ACCEPT/REJECT/REPORT/CONNECT_DOWN/CONNECT/CYCLE_WIN/
  /// FLIP/JOIN/NEW_FRAG packet; any other type is a protocol error.
  void on_tree_message(const sim::Received& msg, sim::NodeContext& ctx);

  const sim::LocalView& view_;

 private:
  void probe_next_link(sim::NodeContext& ctx);
  void maybe_send_report(sim::NodeContext& ctx);
  void route_connect(sim::NodeContext& ctx);
  void win_cycle(sim::NodeContext& ctx);
  void set_parent(EdgeId edge);
  void mark_internal(EdgeId edge);
  void remove_child(EdgeId edge);

  // --- permanent tree state ---------------------------------------------------
  NodeId core_;
  NodeId parent_;
  EdgeId parent_edge_ = kNoEdge;
  std::vector<EdgeId> children_;
  std::vector<bool> link_internal_;  ///< per link index; persists over phases

  // --- per-phase state ----------------------------------------------------------
  std::size_t probe_index_ = 0;
  bool probe_resolved_ = false;
  Weight cand_weight_ = 0;  ///< 0 = no candidate
  EdgeId cand_edge_ = kNoEdge;
  std::uint32_t report_pending_ = 0;
  Weight best_weight_ = 0;
  EdgeId best_child_edge_ = kNoEdge;  ///< minpath pointer; kNoEdge = own link
  bool report_sent_ = false;
  bool have_mwoe_ = false;
  EdgeId gate_edge_ = kNoEdge;  ///< set on the node that crosses the MWOE
  std::vector<std::pair<EdgeId, NodeId>> pending_connects_;  ///< edge, core
  bool is_f_root_ = false;
};

}  // namespace mmn
