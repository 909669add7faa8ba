#include "channel/pseudo_bayesian.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace mmn {

RandomizedScheduler::RandomizedScheduler(double initial_backlog)
    : backlog_(std::max(1.0, initial_backlog)) {}

bool RandomizedScheduler::station_transmits(Rng& rng) const {
  MMN_REQUIRE(!done_, "scheduler already finished");
  // Busy-tone lane: every pending station writes.
  if (!contention_lane()) return true;
  return rng.next_bernoulli(std::min(1.0, 1.0 / backlog_));
}

void RandomizedScheduler::observe(const sim::SlotObservation& obs) {
  MMN_REQUIRE(!done_, "observe after scheduler finished");
  if (contention_lane()) {
    if (obs.success()) ++success_count_;
    backlog_ = rivest_update(backlog_, obs.collision());
  } else {
    if (obs.idle()) done_ = true;  // no station pending anywhere
  }
  ++slot_parity_;
}

}  // namespace mmn
