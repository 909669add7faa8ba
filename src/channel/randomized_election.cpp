#include "channel/randomized_election.hpp"

#include <cmath>

#include "support/check.hpp"

namespace mmn {

double RandomizedElection::probability() const {
  switch (phase_) {
    case Phase::kDescent:
      return std::ldexp(1.0, -(1 << std::min(descent_j_, 6)));  // 2^-2^j
    case Phase::kBisect:
      return std::ldexp(1.0, -((lo_ + hi_) / 2));
    case Phase::kContend:
      return std::ldexp(1.0, -lo_);
  }
  MMN_ASSERT(false, "unknown election phase");
  return 0.0;
}

bool RandomizedElection::station_transmits(Rng& rng) const {
  MMN_REQUIRE(!done_, "election already decided");
  return rng.next_bernoulli(probability());
}

void RandomizedElection::observe(const sim::SlotObservation& obs) {
  MMN_REQUIRE(!done_, "observe after election decided");
  ++slots_;
  if (obs.success()) {
    done_ = true;
    winner_ = obs.payload;
    return;
  }
  switch (phase_) {
    case Phase::kDescent:
      if (obs.collision()) {
        ++descent_j_;  // population >> 2^2^j: halve the probability square
      } else {
        // First idle: log2(n) is bracketed by [2^(j-1), 2^j].
        hi_ = 1 << std::min(descent_j_, 6);
        lo_ = descent_j_ == 0 ? 0 : (1 << std::min(descent_j_ - 1, 6));
        phase_ = lo_ >= hi_ - 1 ? Phase::kContend : Phase::kBisect;
      }
      break;
    case Phase::kBisect: {
      const int mid = (lo_ + hi_) / 2;
      if (obs.collision()) {
        lo_ = mid;  // too many transmitters: lower the probability
      } else {
        hi_ = mid;  // idle: raise it
      }
      if (lo_ >= hi_ - 1) {
        lo_ = std::max(lo_, 0);
        phase_ = Phase::kContend;
      }
      break;
    }
    case Phase::kContend:
      // The rate is near the sweet spot but the bracket can be off by a
      // coin-flip fluke (e.g. every candidate silent in the first descent
      // probe).  Self-correct like backoff: collisions halve the rate,
      // idles double it (never above 1), so a success arrives in O(1)
      // expected slots from any starting point.
      if (obs.collision()) {
        ++lo_;
      } else if (lo_ > 0) {
        --lo_;  // idle
      }
      break;
  }
}

const sim::Packet& RandomizedElection::winner_payload() const {
  MMN_REQUIRE(done_, "election still in progress");
  return winner_;
}

}  // namespace mmn
