#include "baselines/p2p_mst.hpp"

#include "support/check.hpp"
#include "support/math.hpp"

namespace mmn {

P2pMstProcess::P2pMstProcess(const sim::LocalView& view) : GhsFragment(view) {
  phases_ = view.n <= 1 ? 0 : ilog2_ceil(view.n);
  // Worst-case cover for sequential probing (2 rounds per incident link),
  // convergecasts and floods over fragments of uncontrolled Theta(n) radius.
  stage_len_ = 3 * static_cast<std::uint64_t>(view.n) + 8;
}

std::uint64_t P2pMstProcess::num_steps() const {
  return static_cast<std::uint64_t>(phases_) * 5;
}

StepSpec P2pMstProcess::step_spec(std::uint64_t) const {
  return {StepKind::kFixed, stage_len_};
}

void P2pMstProcess::step_begin(std::uint64_t step, sim::NodeContext& ctx) {
  switch (sub_of(step)) {
    case Sub::kMwoe:
      reset_phase();
      begin_mwoe(ctx);
      break;
    case Sub::kConnectSend:
      begin_connect_send(ctx);
      break;
    case Sub::kConnectProc:
      begin_connect_proc(ctx, [](EdgeId) {});
      break;
    case Sub::kMerge:
      // A core without an MWOE rooted F in kConnectProc.
      if (is_core() && !is_f_root()) attach(ctx);
      break;
    case Sub::kNewFrag:
      begin_newfrag(ctx);
      break;
  }
}

void P2pMstProcess::on_message(std::uint64_t /*step*/, const sim::Received& msg,
                               sim::NodeContext& ctx) {
  on_tree_message(msg, ctx);
}

std::vector<EdgeId> P2pMstProcess::mst_edges() const {
  MMN_REQUIRE(finished(), "baseline still running");
  std::vector<EdgeId> edges;
  if (tree_parent_edge() != kNoEdge) edges.push_back(tree_parent_edge());
  return edges;
}

}  // namespace mmn
