#include "channel/capetanakis.hpp"

#include "support/check.hpp"

namespace mmn {

CapetanakisResolver::CapetanakisResolver(std::uint64_t id_bound,
                                         bool massey_skip)
    : massey_skip_(massey_skip) {
  MMN_REQUIRE(id_bound >= 1, "id space must be non-empty");
  stack_.push_back(Interval{0, id_bound, false});
}

void CapetanakisResolver::observe(const sim::SlotObservation& obs) {
  MMN_REQUIRE(!stack_.empty(), "observe after traversal completed");
  const Interval top = stack_.back();
  stack_.pop_back();
  switch (obs.state) {
    case sim::SlotState::kIdle:
      if (massey_skip_ && !top.right_sibling && !stack_.empty() &&
          stack_.back().right_sibling) {
        // Massey's improvement: the collided parent minus an idle left half
        // leaves >= 2 stations in the right half — skip its probe and split.
        const Interval right = stack_.back();
        stack_.pop_back();
        MMN_ASSERT(right.hi - right.lo >= 2,
                   "skip requires a splittable interval");
        const std::uint64_t mid = right.lo + (right.hi - right.lo) / 2;
        stack_.push_back(Interval{mid, right.hi, true});
        stack_.push_back(Interval{right.lo, mid, false});
      }
      break;
    case sim::SlotState::kSuccess:
      ++success_count_;
      break;
    case sim::SlotState::kCollision: {
      MMN_ASSERT(top.hi - top.lo >= 2,
                 "collision in a singleton interval: duplicate station ids");
      const std::uint64_t mid = top.lo + (top.hi - top.lo) / 2;
      stack_.push_back(Interval{mid, top.hi, true});   // right probed second
      stack_.push_back(Interval{top.lo, mid, false});  // left probed first
      break;
    }
  }
}

}  // namespace mmn
