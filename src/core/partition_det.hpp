// The deterministic partitioning algorithm (Section 3 of the paper).
//
// Builds a spanning forest in which every tree (fragment) is a rooted subtree
// of the minimum spanning tree, has size >= sqrt(n), and radius O(sqrt(n)),
// in O(sqrt(n) log* n) time and O(m + n log n log* n) messages.
//
// The algorithm runs partition_phases(n) synchronized phases.  At the start
// of phase i every fragment has level >= i (level = floor(log2 size)); the
// fragments at level exactly i are *active*.  One phase performs, entirely
// over channel-barrier steps (core/stepped.hpp):
//
//   1. COUNT         — broadcast-and-respond inside every fragment: the core
//                      learns its size, computes the level, and floods the
//                      active flag (paper Step 1).
//   2. MWOE          — every node of an active fragment probes its incident
//                      links in ascending weight order with TEST/ACCEPT/
//                      REJECT (GHS-style); a convergecast brings the
//                      fragment's minimum-weight outgoing edge to the core,
//                      recording "minpath" routing pointers (paper Step 2).
//   3. CONNECT       — the core routes a CONNECT down the minpath and across
//                      the chosen edge, defining the fragment graph F; the
//                      receiving fragment records the entry and reports an
//                      F-child to its core.  Two fragments choosing the same
//                      edge form the only possible cycle; the higher core id
//                      becomes the F-root (paper's case (iii)).
//   4. COLORING      — cole_vishkin_iterations rounds of Cole–Vishkin over F
//                      followed by the GPS 6->3 reduction, Step 4 (roots
//                      red), and Step 5 (MIS growth).  Every F-edge exchange
//                      is routed through the fragment trees: cores broadcast
//                      their color down their own tree, border nodes forward
//                      it across entry edges, gates relay it up to the child
//                      core — and symmetrically for child->parent color
//                      reports along the minpath.  The per-vertex rules are
//                      the exact functions from coloring/, so the distributed
//                      execution matches the sequential reference
//                      bit-for-bit.
//   5. MERGE         — every fragment that keeps its out-edge (it is neither
//                      an F-root nor a red internal vertex) flips the parent
//                      pointers along its minpath and attaches its gate to
//                      the parent fragment (paper Step 6); the new cores
//                      flood the merged trees with the new fragment id.
//
// Phase lengths are not precomputed: each step ends at the first idle
// channel slot (Section 7's synchronizer used as a termination detector), so
// the measured time automatically includes synchronization costs.
//
// The tree moves of steps 2, 3 and 5 are GhsFragment's
// (core/ghs_fragment.hpp), shared with the point-to-point MST baseline; this
// class keeps the step schedule, COUNT and the levels, the coloring over F
// and the F-child relays.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "coloring/cole_vishkin.hpp"
#include "core/ghs_fragment.hpp"
#include "core/stepped.hpp"

namespace mmn {

struct PartitionDetConfig {
  /// Number of phases; defaults (negative) to partition_phases(n), giving
  /// fragments of size >= sqrt(n).  Section 5.1's balanced variant of the
  /// global-function algorithm passes a smaller count.
  int phases = -1;

  /// Section 7.3: after each phase's count, attempt to schedule the cores on
  /// the channel with a slot budget of O(2^phase log n).  When the attempt
  /// completes, every core's (id, size) was heard by everyone, each node sums
  /// the sizes into the exact network size, and the algorithm stops early.
  /// The phase structure itself never reads n except as the id-width bound,
  /// matching the paper's unknown-n setting.
  bool with_size_check = false;
};

/// Drives the GhsFragment steps over channel barriers; the fragment tree is
/// the FragmentState (valid once finished).
class PartitionDetProcess final : public SteppedProcess, public GhsFragment {
 public:
  PartitionDetProcess(const sim::LocalView& view, PartitionDetConfig config);

  /// The network size computed by the Section 7.3 size check; valid once
  /// finished with with_size_check set.
  std::uint64_t computed_size() const;

 protected:
  std::uint64_t num_steps() const override;
  StepSpec step_spec(std::uint64_t step) const override;
  void step_begin(std::uint64_t step, sim::NodeContext& ctx) override;
  void on_message(std::uint64_t step, const sim::Received& msg,
                  sim::NodeContext& ctx) override;
  void step_round(std::uint64_t step, sim::NodeContext& ctx) override;
  void on_slot(std::uint64_t slot_step, const sim::SlotObservation& obs,
               sim::NodeContext& ctx) override;
  bool observed_end(std::uint64_t step) const override;
  bool step_dormant(std::uint64_t step) const override;

 private:
  class CheckFold;

  // Sub-steps of one phase, in execution order.  kShift/kDrop repeat for the
  // dropped colors 5, 4, 3; kCv repeats tcv_ times.
  enum class Sub : int {
    kCount,
    kSizeCheck,  // present only with config.with_size_check
    kMwoe,
    kConnectSend,
    kConnectProc,
    kCv,
    kShift,
    kDrop,
    kRootRed,
    kMisBlue,
    kMisGreen,
    kMerge,
    kNewFrag,
  };

  struct SubRef {
    Sub sub;
    int phase;
    int index;  ///< kCv: iteration; kShift/kDrop: 0 -> drop 5, 1 -> 4, 2 -> 3
  };

  int steps_per_phase() const {
    return 15 + tcv_ + (with_size_check_ ? 1 : 0);
  }
  SubRef locate(std::uint64_t step) const;

  // --- messaging helpers --------------------------------------------------
  void forward_down_and_across(sim::NodeContext& ctx, sim::Word color,
                               sim::Word is_root);
  void start_color_exchange(sim::NodeContext& ctx, bool with_child_report);
  /// An F-child attached at this node: tell the core.
  void note_f_child(sim::NodeContext& ctx);

  // --- per-step actions -----------------------------------------------------
  void begin_count(sim::NodeContext& ctx);
  void begin_merge(sim::NodeContext& ctx);
  void apply_pending_color(const SubRef& prev);

  // --- static configuration ------------------------------------------------
  int phases_;
  int bits_;  ///< id width for Cole–Vishkin
  int tcv_;   ///< Cole–Vishkin iterations per phase
  bool with_size_check_ = false;

  // --- per-phase state --------------------------------------------------------
  int level_ = 0;
  bool active_ = false;
  int current_phase_ = 0;

  // COUNT
  std::uint32_t count_pending_ = 0;
  std::uint64_t subtree_size_ = 0;

  // Fragment graph F: the entry edges of the F-children attached at this
  // (border) node.
  std::vector<EdgeId> entry_edges_;
  bool has_f_children_ = false;  ///< meaningful at the core

  // Coloring (state lives at the core)
  Color color_ = 0;
  Color prev_color_ = 0;  ///< pre-shift color saved for drop steps
  Color parent_color_rx_ = 0;
  bool parent_is_root_rx_ = false;
  bool parent_color_valid_ = false;
  bool any_red_child_ = false;

  // Merge
  bool red_internal_ = false;

  // Section 7.3 size check: the engine's fold; pending = a core not yet heard.
  const CheckFold* check_fold_ = nullptr;
  bool check_pending_ = false;
  std::uint64_t computed_size_ = 0;
  std::optional<std::uint64_t> final_steps_;
};

}  // namespace mmn
