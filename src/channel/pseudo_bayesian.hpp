// Randomized channel scheduling (Metcalfe–Boggs 1976 / Rivest's
// pseudo-Bayesian formulation).
//
// The paper's randomized global stage schedules the O(sqrt(n)) fragment roots
// in O(1) expected slots per root by Ethernet-style randomized resolution.
// We implement the pseudo-Bayesian variant: each pending station transmits
// with probability min(1, 1/nu) for a backlog estimate nu that is a pure
// function of the public slot outcomes (collision: nu += 1/(e-2); otherwise
// nu = max(1, nu - 1)), so one listener copy, folded once per engine
// (sim::PublicFold), answers for every station.  The expected throughput
// approaches 1/e, i.e. ~e slots per station.
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
/// expected station, floored at 1.  The one copy shared by the listener
/// RandomizedScheduler and the discipline-level sim::PseudoBayesianDiscipline.
inline double rivest_update(double backlog, bool collision) {
  return collision ? backlog + 1.0 / (std::exp(1.0) - 2.0)
                   : std::max(1.0, backlog - 1.0);
}

class RandomizedScheduler {
 public:
  /// initial_backlog: shared a-priori estimate of the number of stations
  /// (the paper uses the 2*sqrt(n) bound certified by the Las Vegas
  /// partition).
  explicit RandomizedScheduler(double initial_backlog);

  /// The decision of a pending station in the upcoming slot, made from the
  /// public state (backlog estimate, lane) with the station's own `rng`:
  /// one Bernoulli draw in a contention lane, none in a busy-tone lane.
  bool station_transmits(Rng& rng) const;

  /// Feeds the public outcome of the slot.
  void observe(const sim::SlotObservation& obs);

  /// All stations done (observed as an idle busy-tone slot).
  bool done() const { return done_; }

  /// Number of contention-lane success slots observed so far.
  std::uint64_t success_count() const { return success_count_; }

 private:
  bool contention_lane() const { return (slot_parity_ & 1) == 0; }

  double backlog_;
  bool done_ = false;
  std::uint64_t slot_parity_ = 0;
  std::uint64_t success_count_ = 0;
};

}  // namespace mmn
