// Pure point-to-point MST baseline: synchronous Boruvka (GHS-style).
//
// What a network without the channel can do, for the Section 6 comparison.
// Every fragment finds its minimum-weight outgoing edge with GHS
// TEST/ACCEPT/REJECT probing and a convergecast, fragments merge along the
// chosen edges (the two-fragments-one-edge cycle is rooted at the higher
// core id), and the new core floods the merged tree with its id.  Without a
// channel there is no termination detector, so every phase runs a
// precomputed worst-case length of Theta(n) rounds — fragment radii are not
// controlled, and a Boruvka fragment can be a Theta(n)-deep chain.  With
// ceil(log2 n) phases the total is Theta(n log n) time, the classic GHS
// bound the multimedia algorithm's O(sqrt(n) log n) is measured against.
//
// The fragment moves are GhsFragment's (core/ghs_fragment.hpp), as in the
// deterministic partition; this baseline keeps only its fixed-length phase
// schedule and its merge policy: every fragment with an MWOE that does not
// root F attaches.
#pragma once

#include <cstdint>
#include <vector>

#include "core/ghs_fragment.hpp"
#include "core/stepped.hpp"

namespace mmn {

class P2pMstProcess final : public SteppedProcess, public GhsFragment {
 public:
  explicit P2pMstProcess(const sim::LocalView& view);

  /// MST edges this node is an endpoint of (its final tree parent edge);
  /// the union over nodes is the MST edge set.  Valid once finished.
  std::vector<EdgeId> mst_edges() const;

 protected:
  std::uint64_t num_steps() const override;
  StepSpec step_spec(std::uint64_t step) const override;
  void step_begin(std::uint64_t step, sim::NodeContext& ctx) override;
  void on_message(std::uint64_t step, const sim::Received& msg,
                  sim::NodeContext& ctx) override;

 private:
  enum class Sub : int { kMwoe, kConnectSend, kConnectProc, kMerge, kNewFrag };

  Sub sub_of(std::uint64_t step) const {
    return static_cast<Sub>(step % 5);
  }

  int phases_;
  std::uint64_t stage_len_;
};

}  // namespace mmn
