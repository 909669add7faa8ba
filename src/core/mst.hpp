// Minimum spanning tree in a multimedia network (Section 6 of the paper).
//
// Three stages, O(sqrt(n) log n) time, O(m + n log n log* n) messages:
//
//   1. Deterministic partition (Section 3) into <= sqrt(n) *initial
//      fragments*, each an MST subtree of size >= sqrt(n), radius O(sqrt(n)).
//   2. One Capetanakis resolution schedules the initial-fragment cores on
//      the channel.  Every node decodes the same schedule, so the fragment
//      list, its TDMA order, and the fragment count k become common
//      knowledge; the engine folds it once (sim::PublicFold) while every
//      node but a pending core dozes (core/stepped.hpp).
//   3. O(log n) Boruvka phases over *current fragments* (unions of initial
//      fragments).  Per phase: every initial fragment converge-casts the
//      minimum-weight link leaving its *current* fragment (purely local —
//      each node knows the initial fragment across every link and the shared
//      initial->current map); then the k cores broadcast their candidates in
//      one TDMA cycle.  Every node hears all k reports, picks each current
//      fragment's minimum, merges the current fragments identically (a local
//      union-find mirrored network-wide), and the two endpoints of every
//      chosen link mark it as an MST edge.  Fragment count at least halves
//      per phase; the run ends, simultaneously everywhere, the cycle the
//      count reaches one.
//
// Since link weights are distinct the MST is unique: the result equals
// Kruskal's tree edge for edge.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/partition.hpp"
#include "core/stepped.hpp"
#include "graph/dsu.hpp"

namespace mmn {

class MstProcess final : public sim::Process {
 public:
  explicit MstProcess(const sim::LocalView& view);

  void round(sim::NodeContext& ctx) override;
  bool finished() const override;

  /// MST edges this node is an endpoint of (its partition-tree parent edge
  /// plus every chosen inter-fragment link it touches).  The union over all
  /// nodes is exactly the MST edge set.  Valid once finished.
  std::vector<EdgeId> mst_edges() const;

  /// Number of Boruvka phases stage 3 used (identical at every node).
  int phases_used() const;

 private:
  class ComputeStage;

  std::unique_ptr<SteppedSequenceProcess> sequence_;
  const ComputeStage* compute_ = nullptr;       // owned by sequence_
  const FragmentState* partition_ = nullptr;    // owned by sequence_
};

}  // namespace mmn
