// Deterministic leader election on the multiaccess channel.
//
// The O(log n) symmetry-breaking scheme the paper sketches in Section 2:
// candidates compare ids bit by bit from the most significant bit down.  In
// round b every remaining candidate whose bit b is 1 transmits a busy tone;
// if the slot is non-idle, candidates with bit b == 0 withdraw.  After one
// round per bit, exactly one candidate — the one with the maximum id —
// remains.  Every node (candidate or not) reconstructs the winner's id from
// the slot states alone: bit b of the leader is 1 iff round b was non-idle.
//
// The election state is a pure function of the shared slot observations, so
// one listener copy answers for every candidate (station_transmits), as
// CapetanakisResolver does: a candidate is still in the race exactly when
// its bits above the probed one equal the leader prefix decoded so far.
#pragma once

#include <cstdint>

#include "sim/channel.hpp"

namespace mmn {

class ChannelElection {
 public:
  /// id_bound: candidate ids lie in [0, id_bound).
  explicit ChannelElection(std::uint64_t id_bound);

  /// Whether candidate `id` transmits in the upcoming slot: its bits above
  /// the probed bit equal the leader prefix, and its probed bit is 1.
  bool station_transmits(std::uint64_t id) const;

  void observe(const sim::SlotObservation& obs);

  bool done() const { return bit_ < 0; }

  /// The maximum candidate id; valid once done().  If no candidate ran at
  /// all, the reconstructed id is 0 and `any_candidate()` is false.
  std::uint64_t leader() const;

  /// True if at least one non-idle slot was observed (some candidate exists).
  bool any_candidate() const { return any_candidate_; }

  /// Total rounds the election takes (same for every node).
  int total_rounds() const { return total_bits_; }

 private:
  bool any_candidate_ = false;
  int total_bits_;
  int bit_;  // bit probed in the upcoming slot; -1 when done
  std::uint64_t leader_bits_ = 0;  ///< the bits above bit_ decoded so far
};

}  // namespace mmn
