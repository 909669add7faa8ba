// Randomized channel scheduling (Metcalfe–Boggs 1976 / Rivest's
// pseudo-Bayesian formulation).
//
// The paper's randomized global stage schedules the O(sqrt(n)) fragment roots
// in O(1) expected slots per root by Ethernet-style randomized resolution.
// We implement the pseudo-Bayesian variant: every listener maintains a shared
// backlog estimate nu; each pending station transmits with probability
// min(1, 1/nu); nu is updated identically at every node from the public slot
// outcome (collision: nu += 1/(e-2); otherwise nu = max(1, nu - 1)).  The
// expected throughput approaches 1/e, i.e. ~e slots per station.
//
// Termination detection: the channel alternates between a CONTENTION lane
// (even local slots) and a BUSY-TONE lane (odd local slots) in which every
// still-pending station transmits.  An idle busy-tone slot proves global
// completion to every listener.  This at most doubles the slot count and is
// assembled from the same busy-tone primitive as the Section 7 synchronizer.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "sim/channel.hpp"
#include "support/rng.hpp"

namespace mmn {

/// Rivest's pseudo-Bayesian backlog update from one public slot outcome: a
/// collision reveals at least two backlogged stations, so the Poisson
/// posterior shifts up by 1/(e-2); an idle or success slot drains one
/// expected station, floored at 1.  The one copy shared by the node-side
/// RandomizedScheduler and the discipline-level sim::PseudoBayesianDiscipline.
inline double rivest_update(double backlog, bool collision) {
  return collision ? backlog + 1.0 / (std::exp(1.0) - 2.0)
                   : std::max(1.0, backlog - 1.0);
}

class RandomizedScheduler {
 public:
  /// initial_backlog: shared a-priori estimate of the number of stations
  /// (the paper uses the 2*sqrt(n) bound certified by the Las Vegas
  /// partition).  pending: whether this node has a payload to schedule.
  /// collect_successes: whether to record success payloads in successes().
  /// A caller that folds each success as it arrives (success_count() tells
  /// it when one did) should pass false — the default copies every success
  /// payload at EVERY listening node, which dominates the per-round cost of
  /// the n-node global stages.
  RandomizedScheduler(double initial_backlog, bool pending,
                      bool collect_successes = true);

  /// Decides transmission for the upcoming slot; must be called exactly once
  /// per slot before observe().  Draws randomness only in contention lanes.
  bool should_transmit(Rng& rng);

  /// The decision of a pending station in the upcoming slot, made from
  /// this scheduler's public state (backlog estimate, lane) with the
  /// station's own `rng`: one Bernoulli draw in a contention lane, none in
  /// a busy-tone lane.  A listener answers for every pending station,
  /// which then needs no scheduler of its own — the draw is the one
  /// should_transmit makes for a pending copy in the same slot.
  bool station_transmits(Rng& rng) const;

  /// Feeds the public outcome of the slot; `success_was_mine` as seen by the
  /// caller (obs.writer == own id).
  void observe(const sim::SlotObservation& obs, bool success_was_mine = false);

  /// All stations done (observed as an idle busy-tone slot).
  bool done() const { return done_; }

  /// This station's payload has been transmitted successfully.
  bool succeeded() const { return !pending_; }

  /// Payloads of all success slots in schedule order.  Empty when
  /// constructed with collect_successes == false.
  const std::vector<sim::Packet>& successes() const { return successes_; }

  /// Number of success slots observed so far (maintained regardless of
  /// collect_successes — compare across observe() to fold incrementally).
  std::uint64_t success_count() const { return success_count_; }

 private:
  bool contention_lane() const { return (slot_parity_ & 1) == 0; }

  double backlog_;
  bool pending_;
  bool collect_successes_;
  bool done_ = false;
  std::uint64_t slot_parity_ = 0;
  std::uint64_t success_count_ = 0;
  std::vector<sim::Packet> successes_;
};

}  // namespace mmn
