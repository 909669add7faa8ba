#include "channel/election.hpp"

#include "support/check.hpp"
#include "support/math.hpp"

namespace mmn {

ChannelElection::ChannelElection(std::uint64_t id_bound) {
  MMN_REQUIRE(id_bound >= 1, "id space must be non-empty");
  total_bits_ = id_bound == 1 ? 1 : ilog2_ceil(id_bound);
  bit_ = total_bits_ - 1;
}

bool ChannelElection::station_transmits(std::uint64_t id) const {
  if (done()) return false;
  // Two shifts: bit_ + 1 reaches 64 for a 64-bit id space.
  const std::uint64_t above = ~std::uint64_t{0} << bit_ << 1;
  return (id & above) == leader_bits_ && ((id >> bit_) & 1) == 1;
}

void ChannelElection::observe(const sim::SlotObservation& obs) {
  MMN_REQUIRE(!done(), "observe after election completed");
  if (!obs.idle()) {
    // Some candidate in the race has a 1 here; those with a 0 drop out.
    any_candidate_ = true;
    leader_bits_ |= (std::uint64_t{1} << bit_);
  }
  --bit_;
}

std::uint64_t ChannelElection::leader() const {
  MMN_REQUIRE(done(), "election still in progress");
  return leader_bits_;
}

}  // namespace mmn
