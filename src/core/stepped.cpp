#include "core/stepped.hpp"

#include "support/check.hpp"

namespace mmn {

void SteppedProcess::on_slot(std::uint64_t, const sim::SlotObservation&,
                             sim::NodeContext&) {}

void SteppedProcess::step_round(std::uint64_t, sim::NodeContext&) {}

bool SteppedProcess::step_done(std::uint64_t) const { return true; }

bool SteppedProcess::observed_end(std::uint64_t) const { return false; }

bool SteppedProcess::step_dormant(std::uint64_t) const { return false; }

void SteppedProcess::round(sim::NodeContext& ctx) {
  if (finished_) return;

  // The running step's spec is cached at step entry: step_spec must be a
  // pure function of the step index and of state fixed before the step
  // starts (every node evaluates it identically anyway — a spec that
  // changed mid-step would desynchronize the network).  Caching keeps the
  // per-round loop free of the step_spec virtual calls, which dominate the
  // framework's own cost at scale; num_steps() — which MAY grow as shared
  // information arrives — is still consulted fresh at every transition.
  if (!started_) {
    started_ = true;
    if (num_steps() == 0) {
      finished_ = true;
      return;
    }
    spec_ = step_spec(0);
    step_begin(0, ctx);
  } else {
    if (slot_owner_ != kNoStep) on_slot(slot_owner_, ctx.slot(), ctx);

    bool advance = false;
    switch (spec_.kind) {
      case StepKind::kBarrier:
        // Only an idle slot that this step itself owned proves quiescence;
        // the slot that *triggered* the step's start belongs to its
        // predecessor.
        advance = slot_owner_ == step_ && ctx.slot().idle();
        break;
      case StepKind::kFixed:
        advance = rounds_in_step_ >= spec_.fixed_rounds;
        break;
      case StepKind::kObserved:
        advance = observed_end(step_);
        break;
    }
    if (advance) {
      ++step_;
      rounds_in_step_ = 0;
      if (step_ >= num_steps()) {
        finished_ = true;
        return;
      }
      spec_ = step_spec(step_);
      step_begin(step_, ctx);
    }
  }

  for (const sim::Received& msg : ctx.inbox()) {
    on_message(step_, msg, ctx);
  }
  step_round(step_, ctx);

  if (spec_.kind == StepKind::kBarrier) {
    MMN_ASSERT(!ctx.wrote_channel(),
               "barrier steps reserve the channel for busy tones");
    const bool done = step_done(step_);
    if (!done || ctx.sent_message()) {
      ctx.channel_write(sim::Packet(kBusyTone));
    }
    // Reactive barrier (see stepped.hpp): until a message arrives or the
    // step's idle slot ends it, this node's rounds are no-ops.
    if (done) ctx.sleep();
  } else if (spec_.kind == StepKind::kObserved && step_dormant(step_)) {
    // Observed dormancy (see stepped.hpp): until a message arrives or a
    // public fold's event fires, this node's rounds are no-ops.
    ctx.doze();
  }

  slot_owner_ = step_;
  ++rounds_in_step_;
}

}  // namespace mmn
