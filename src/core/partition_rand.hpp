// The randomized partitioning algorithm (Section 4 of the paper).
//
// Runs ln* n + O(1) synchronized iterations.  In iteration i every free node
// becomes a *local center* with probability min(1, E_{i+1} / sqrt(n)), where
// E_1 = 1 and E_{i+1} = e^{E_i} (the tower makes the expected number of
// surviving free nodes collapse doubly-exponentially, so the expected total
// number of centers — and hence trees — is O(sqrt(n)), Theorem 1).  Centers
// grow synchronized BFS waves to distance at most 4*sqrt(n); a labeled node
// switches trees only if the new wave strictly reduces its distance label,
// breaking same-round ties toward the smaller center id.  At the end of an
// iteration, nodes in trees with no outgoing link to an unlabeled node, and
// nodes with label <= 2*sqrt(n) in any tree, become unfree (frozen); the
// final iteration has probability 1, so every node ends up in some tree of
// radius <= 4*sqrt(n).
//
// Message economy follows the paper: a wave is forwarded only by nodes it
// improves, a link whose two endpoints are in one tree without being a tree
// edge is pruned from future waves, and labeled nodes advertise their root to
// neighbors exactly when it changes (which also lets nodes detect unlabeled
// neighbors passively).  Expected message complexity O(m + n log* n).
//
// LasVegasPartitionProcess wraps the Monte Carlo algorithm with the paper's
// verification step: try to schedule the tree roots on the channel with the
// randomized resolution protocol; accept if at most 2*sqrt(n) roots schedule
// within the slot budget, restart the partition otherwise (Section 4,
// Remark).  The engine folds the verifier once per slot (sim::PublicFold).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/partition.hpp"
#include "core/stepped.hpp"

namespace mmn {

struct PartitionRandConfig {
  /// Growth radius and freeze threshold in units of ceil(sqrt(n)); the
  /// paper's values are 4 and 2.
  std::uint32_t radius_factor = 4;
  std::uint32_t freeze_factor = 2;

  /// Section 4 remark / Section 7.4: the algorithm "can be modified so that
  /// it will work when n is unknown and the nodes are anonymous".
  /// size_hint (0 = use the model's known n) supplies an external estimate
  /// — e.g. the Greenberg–Ladner output — in place of n; `anonymous` makes
  /// every node draw a random 63-bit id for center naming and tie-breaking
  /// instead of using its processor id.
  std::uint64_t size_hint = 0;
  bool anonymous = false;
};

class PartitionRandProcess final : public SteppedProcess,
                                   public FragmentState {
 public:
  PartitionRandProcess(const sim::LocalView& view, PartitionRandConfig config);

  // FragmentState (valid once finished):
  NodeId tree_parent() const override { return parent_; }
  EdgeId tree_parent_edge() const override { return parent_edge_; }
  /// With default ids this is the root's node id; with anonymous ids it is
  /// an opaque (truncated random) label, identical across each tree.
  NodeId fragment_id() const override {
    return static_cast<NodeId>(root_ & 0x7FFFFFFF);
  }

 protected:
  std::uint64_t num_steps() const override;
  StepSpec step_spec(std::uint64_t step) const override;
  void step_begin(std::uint64_t step, sim::NodeContext& ctx) override;
  void on_message(std::uint64_t step, const sim::Received& msg,
                  sim::NodeContext& ctx) override;
  void step_round(std::uint64_t step, sim::NodeContext& ctx) override;

 private:
  enum class Sub : int { kGrow, kCommit, kFreeze };

  static constexpr std::uint32_t kInfDist = static_cast<std::uint32_t>(-1);
  static constexpr std::uint64_t kNoId = static_cast<std::uint64_t>(-1);

  Sub sub_of(std::uint64_t step) const { return static_cast<Sub>(step % 3); }
  int iteration_of(std::uint64_t step) const {
    return static_cast<int>(step / 3);
  }

  bool labeled() const { return root_ != kNoId; }
  bool wave_improves() const {
    return !frozen_ && (dist_ == kInfDist || wave_dist_ < dist_);
  }
  bool has_unlabeled_neighbor() const;
  void forward_wave(sim::NodeContext& ctx);
  void begin_grow(int iteration, sim::NodeContext& ctx);
  void begin_commit(sim::NodeContext& ctx);
  void begin_freeze(sim::NodeContext& ctx);
  void finish_freeze_query(sim::NodeContext& ctx);
  void apply_freeze(bool tree_frozen);

  const sim::LocalView& view_;
  int iterations_;
  std::uint32_t max_radius_;
  std::uint32_t freeze_threshold_;
  double sqrt_n_;
  bool anonymous_;
  std::uint64_t my_id_;  ///< node id, or a random draw when anonymous

  // Committed forest state.
  bool frozen_ = false;
  std::uint64_t root_ = kNoId;
  std::uint32_t dist_ = kInfDist;
  NodeId parent_;
  EdgeId parent_edge_ = kNoEdge;
  std::vector<EdgeId> children_;
  std::vector<std::uint64_t> neighbor_root_;  ///< per link; kNoId = unlabeled

  // Per-iteration wave state.
  bool wave_set_ = false;
  std::uint64_t wave_root_ = kNoId;
  std::uint32_t wave_dist_ = kInfDist;
  EdgeId wave_parent_edge_ = kNoEdge;
  bool cand_pending_ = false;
  std::uint64_t cand_root_ = kNoId;
  std::uint32_t cand_dist_ = kInfDist;
  EdgeId cand_edge_ = kNoEdge;

  // Freeze convergecast state.
  std::uint32_t freeze_pending_ = 0;
  bool subtree_sees_unlabeled_ = false;
};

/// Section 4's Las Vegas wrapper: Monte Carlo partition + channel
/// verification, restarted until a certified partition (<= 2*sqrt(n) trees)
/// is produced.
class LasVegasPartitionProcess final : public sim::Process,
                                       public FragmentState {
 public:
  LasVegasPartitionProcess(const sim::LocalView& view,
                           PartitionRandConfig config);

  void round(sim::NodeContext& ctx) override;
  bool finished() const override { return accepted_; }

  NodeId tree_parent() const override { return inner_->tree_parent(); }
  EdgeId tree_parent_edge() const override { return inner_->tree_parent_edge(); }
  NodeId fragment_id() const override { return inner_->fragment_id(); }

  /// Number of Monte Carlo attempts (>= 1); identical at every node.
  int attempts() const { return attempts_; }

 private:
  class VerifyFold;

  const sim::LocalView& view_;
  PartitionRandConfig config_;
  std::unique_ptr<PartitionRandProcess> inner_;
  const VerifyFold* verifier_ = nullptr;  ///< the engine's; null until used
  bool pending_ = false;  ///< a root not yet scheduled by the verifier
  bool accepted_ = false;
  int attempts_ = 1;
};

}  // namespace mmn
