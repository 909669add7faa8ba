#include "channel/pseudo_bayesian.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace mmn {

RandomizedScheduler::RandomizedScheduler(double initial_backlog, bool pending,
                                         bool collect_successes)
    : backlog_(std::max(1.0, initial_backlog)),
      pending_(pending),
      collect_successes_(collect_successes) {}

bool RandomizedScheduler::should_transmit(Rng& rng) {
  MMN_REQUIRE(!done_, "scheduler already finished");
  return pending_ && station_transmits(rng);
}

bool RandomizedScheduler::station_transmits(Rng& rng) const {
  MMN_REQUIRE(!done_, "scheduler already finished");
  // Busy-tone lane: every pending station writes.
  if (!contention_lane()) return true;
  return rng.next_bernoulli(std::min(1.0, 1.0 / backlog_));
}

void RandomizedScheduler::observe(const sim::SlotObservation& obs,
                                  bool success_was_mine) {
  MMN_REQUIRE(!done_, "observe after scheduler finished");
  if (contention_lane()) {
    if (obs.success()) {
      ++success_count_;
      if (collect_successes_) successes_.push_back(obs.payload);
      if (success_was_mine) pending_ = false;
    }
    backlog_ = rivest_update(backlog_, obs.collision());
  } else {
    if (obs.idle()) done_ = true;  // no station pending anywhere
  }
  ++slot_parity_;
}

}  // namespace mmn
