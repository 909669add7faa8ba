// Capetanakis tree conflict-resolution (IEEE Trans. IT 1979).
//
// Schedules an unknown subset of stations (each holding a distinct id in
// [0, id_bound)) onto the channel: repeatedly let every pending station whose
// id lies in the current probe interval transmit; on collision split the
// interval and probe the halves.  A depth-first traversal of the implied
// binary tree over the id space resolves every station in
// O(k log(id_bound / k) + k) slots for k stations.
//
// The traversal state is a pure function of the shared slot observations, so
// one listener copy answers for every station (station_transmits) and detects
// termination for every node; the protocols fold it once per engine
// (sim::PublicFold).  This is what the paper uses to schedule the O(sqrt(n))
// fragment cores deterministically (Sections 5 and 6).
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "sim/channel.hpp"

namespace mmn {

class CapetanakisResolver {
 public:
  /// `massey_skip` enables the classic improvement: when a collision's left
  /// half turns out idle, the right half must still hold >= 2 stations, so
  /// its doomed probe is skipped and it is split immediately.  The resulting
  /// schedule is identical; only the slot count shrinks.
  explicit CapetanakisResolver(std::uint64_t id_bound,
                               bool massey_skip = false);

  /// The id interval [lo, hi) probed by the upcoming slot, or nullopt once
  /// the traversal is done.  This is the collision-set bookkeeping hook a
  /// centralized scheduler (the Capetanakis channel discipline,
  /// sim/channel_discipline.hpp) uses to pick the contending writers.
  std::optional<std::pair<std::uint64_t, std::uint64_t>> probe() const {
    if (stack_.empty()) return std::nullopt;
    return std::make_pair(stack_.back().lo, stack_.back().hi);
  }

  /// Whether pending station `id` transmits in the upcoming slot.
  bool station_transmits(std::uint64_t id) const {
    return !stack_.empty() && id >= stack_.back().lo && id < stack_.back().hi;
  }

  /// Feeds the outcome of the slot everyone just observed.
  void observe(const sim::SlotObservation& obs);

  /// Traversal complete: every contending station has had a success slot.
  bool done() const { return stack_.empty(); }

  /// Number of success slots observed so far.
  std::uint64_t success_count() const { return success_count_; }

 private:
  struct Interval {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;       // half open [lo, hi)
    bool right_sibling = false;  // this interval is a collision's right half
  };

  bool massey_skip_;
  std::uint64_t success_count_ = 0;
  std::vector<Interval> stack_;  // top = back
};

}  // namespace mmn
