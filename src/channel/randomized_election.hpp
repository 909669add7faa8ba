// Randomized leader election on the multiaccess channel.
//
// Section 2 of the paper notes that with the known conflict-resolution
// toolbox, election takes O(log n) slots deterministically (election.hpp) or
// O(log log n) expected slots randomized (citing Willard 1984).  This is the
// Willard-style protocol:
//
//   1. scale descent — probe transmission probabilities 2^-2^j for
//      j = 0, 1, 2, ...; while the population is far larger than 2^2^j the
//      slot collides; the first non-collision brackets log2(n) into
//      [2^(j-1), 2^j] after O(log log n) probes;
//   2. binary search — bisect the exponent k in that bracket with probes at
//      probability 2^-k: collision raises k, idle lowers it (O(log log n));
//   3. contention — transmit with the bracketed probability until the first
//      success; the successful transmitter is the leader (O(1) expected).
//
// Any success in phases 1–2 also ends the election immediately.  All state
// is a function of the shared slot outcomes, so one listener copy serves
// every candidate (station_transmits draws from the candidate's own RNG),
// and every node agrees on the winner and on the termination slot.
#pragma once

#include <cstdint>

#include "sim/channel.hpp"
#include "support/rng.hpp"

namespace mmn {

class RandomizedElection {
 public:
  /// Whether a candidate transmits in the upcoming slot; one draw from its
  /// own `rng`, so call it exactly once per candidate per slot.
  bool station_transmits(Rng& rng) const;

  /// Feeds the shared outcome of the slot.
  void observe(const sim::SlotObservation& obs);

  bool done() const { return done_; }

  /// The winning slot's payload (the leader's announcement); valid once
  /// done().  Anonymous candidates are fine: the payload names the winner.
  const sim::Packet& winner_payload() const;

  /// Slots consumed so far.
  std::uint64_t slots() const { return slots_; }

 private:
  enum class Phase : std::uint8_t { kDescent, kBisect, kContend };

  double probability() const;

  bool done_ = false;
  Phase phase_ = Phase::kDescent;
  int descent_j_ = 0;  // probing probability 2^-2^j
  int lo_ = 0;         // bisection bracket on the exponent k
  int hi_ = 0;
  std::uint64_t slots_ = 0;
  sim::Packet winner_;
};

}  // namespace mmn
