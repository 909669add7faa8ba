// Stepped protocols with channel barriers.
//
// The paper's algorithms proceed in globally synchronized steps ("all the
// processors start (and end) each phase simultaneously", Section 3).  It
// offers two mechanisms: precomputed phase lengths, or the busy-tone
// synchronizer of Section 7 used as a termination detector.  We implement the
// latter: during a *barrier* step every node that is still working — it sent
// a point-to-point message this round or declares itself locally busy —
// writes a busy tone into the channel slot.  Since an idle slot is publicly
// observable, the first idle slot proves global quiescence of the step to
// every node simultaneously, and all nodes advance together.  A message sent
// in round r keeps its sender busy in r and its receiver active in r + 1, so
// no in-flight message can survive a barrier.
//
// Three step kinds:
//   kBarrier  — ends at the first idle slot owned by the step.  The channel
//               carries only busy tones; all data moves point-to-point.
//   kFixed    — occupies exactly `fixed_rounds` rounds (a schedule every node
//               computes identically, e.g. TDMA cycles).
//   kObserved — ends when a deterministic function of the shared slot
//               outcomes says so (e.g. a Capetanakis traversal completing);
//               every listener reaches the same verdict in the same round.
//
// Subclasses receive step-scoped callbacks and never touch the barrier
// machinery.  Because transitions depend only on globally shared signals,
// every node is always in the same step.
//
// Barrier steps are reactive, and that is a contract every subclass keeps:
// during a kBarrier step, in a round whose inbox is empty, a node whose
// step_done() holds does not act in step_round or on_slot — no RNG draw, no
// send, no channel write, no change to state anyone reads.  Such a node has
// nothing to do until a message reaches it or the step's first idle slot
// ends the step for everyone, so SteppedProcess asks the engine to let it
// sleep until then (NodeContext::sleep) at the end of every barrier-step
// round in which step_done() holds, and the engine steps only the nodes
// that have work (see sim/runtime_core.hpp, "active set").  A sleeping
// node's skipped rounds would have been no-ops, so results are bit-identical
// to stepping it; tests/test_active_set.cpp audits every registered
// scenario for this.  Fixed steps never rest: a TDMA slot index is
// per-round work.
//
// Observed steps may rest too, under a second contract a subclass opts
// into by overriding step_dormant.  An observed step's verdict is a fold
// of the public slot outcomes, which every node would otherwise fold in
// its own copy each slot; a subclass instead keeps that fold in one
// sim::PublicFold per engine (NodeContext::public_fold, taken in
// step_begin), which the engine folds once per slot.  A node for which
// step_dormant(step) holds at the end of a round then has nothing to do
// until the fold's event fires: in its following rounds of the step, with
// an empty inbox, step_round and on_slot draw no RNG, send nothing, write
// no channel slot and change no state anyone reads, and observed_end(step)
// turns true only in the round after a fold's event.  SteppedProcess asks
// the engine to let such a node doze (NodeContext::doze) — skipped until a
// message arrives or a fold's event fires; an idle slot does not wake it.
// The audit in tests/test_active_set.cpp covers dozed rounds as well.
// Three stages doze, each node keeping a pending bit and a pointer to the
// fold: the global stage (core/global_function.cpp), the Section 7.3 size
// check (core/partition_det.cpp) and MST stage 2 (core/mst.cpp).  A node
// that crashes inside one and recovers before it ends reads the current
// public state; registered fault plans kill links only, so none does.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/engine.hpp"
#include "support/check.hpp"

namespace mmn {

enum class StepKind : std::uint8_t { kBarrier, kFixed, kObserved };

struct StepSpec {
  StepKind kind = StepKind::kBarrier;
  std::uint64_t fixed_rounds = 0;  ///< used by kFixed only
};

class SteppedProcess : public sim::Process {
 public:
  void round(sim::NodeContext& ctx) final;
  bool finished() const final { return finished_; }

 protected:
  /// Reserved packet type for barrier busy tones.
  static constexpr std::uint16_t kBusyTone = 0xFFFF;

  /// Rounds elapsed inside the current step (0 in the step's first round);
  /// the slot index for kFixed TDMA schedules.  Counts executed rounds, so
  /// it is not available in a barrier step, whose rounds a node may sleep
  /// through, nor in an observed step in which step_dormant holds, whose
  /// rounds it may doze through.
  std::uint64_t rounds_in_step() const {
    MMN_ASSERT(spec_.kind != StepKind::kBarrier,
               "rounds_in_step() is stale in a barrier step (nodes sleep)");
    MMN_ASSERT(spec_.kind != StepKind::kObserved || !step_dormant(step_),
               "rounds_in_step() is stale in a dormant observed step "
               "(nodes doze)");
    return rounds_in_step_;
  }

  /// Number of steps; may grow as shared information arrives, but must
  /// evaluate identically at every node in every round.
  virtual std::uint64_t num_steps() const = 0;

  /// Kind and length of the given step; identical at every node.  Read once
  /// when the step begins and cached for the step's duration (the hot round
  /// loop must stay free of this virtual call), so it must be a pure
  /// function of the step index and of state fixed before the step starts.
  virtual StepSpec step_spec(std::uint64_t step) const = 0;

  /// Called once when the step starts (same round at every node).
  virtual void step_begin(std::uint64_t step, sim::NodeContext& ctx) = 0;

  /// Called for every point-to-point message, tagged with the current step.
  virtual void on_message(std::uint64_t step, const sim::Received& msg,
                          sim::NodeContext& ctx) = 0;

  /// Called with the outcome of every channel slot, tagged with the step
  /// that owned the slot (kFixed / kObserved steps consume data here).
  virtual void on_slot(std::uint64_t slot_step, const sim::SlotObservation& obs,
                       sim::NodeContext& ctx);

  /// Called every round after message processing (per-round work such as
  /// channel writes in kFixed / kObserved steps).
  virtual void step_round(std::uint64_t step, sim::NodeContext& ctx);

  /// kBarrier: local-idleness predicate.  The default (true) suits reactive
  /// protocols where all activity is triggered by messages; the framework's
  /// sent-this-round busy tone keeps causal chains alive.  While it holds
  /// and the inbox is empty, step_round and on_slot must not act (the
  /// reactive-barrier contract above).
  virtual bool step_done(std::uint64_t step) const;

  /// kObserved: end predicate, a function of the observations already fed to
  /// on_slot; must evaluate identically at every node.
  virtual bool observed_end(std::uint64_t step) const;

  /// kObserved: true when this node's rounds in the step, from the end of
  /// the current one on, are no-ops until a public fold's event fires (the
  /// observed-dormancy contract above); the node then dozes.  Default:
  /// never.
  virtual bool step_dormant(std::uint64_t step) const;

 private:
  static constexpr std::uint64_t kNoStep = static_cast<std::uint64_t>(-1);

  std::uint64_t step_ = 0;
  std::uint64_t rounds_in_step_ = 0;
  std::uint64_t slot_owner_ = kNoStep;  // step that owned the previous slot
  StepSpec spec_{};                     // spec of step_, cached at entry
  bool started_ = false;
  bool finished_ = false;
};

/// Runs a list of sub-protocols back to back.  Each stage must finish in the
/// same round at every node (true for every protocol in this library — they
/// all end on a shared signal), so successive stages stay aligned network
/// wide.  Later stages may hold pointers to earlier ones and read their
/// results once started.
///
/// The stage type is a template parameter so layered protocols can
/// devirtualize their hottest call: with Stage = SteppedProcess (the
/// SteppedSequenceProcess alias) the per-node-per-round stage dispatch is a
/// direct call with the finished probe inlined, because round()/finished()
/// are final on SteppedProcess.  The default Stage = sim::Process keeps the
/// fully generic form for sequencing composite processes.
template <typename Stage = sim::Process>
class BasicSequenceProcess final : public sim::Process {
 public:
  explicit BasicSequenceProcess(std::vector<std::unique_ptr<Stage>> stages)
      : stages_(std::move(stages)) {
    MMN_REQUIRE(!stages_.empty(), "sequence needs at least one stage");
    for (const auto& s : stages_) {
      MMN_REQUIRE(s != nullptr, "sequence stage must not be null");
    }
  }

  void round(sim::NodeContext& ctx) override {
    while (index_ < stages_.size() && stages_[index_]->finished()) {
      ++index_;
    }
    if (index_ < stages_.size()) {
      stages_[index_]->round(ctx);
    }
  }

  bool finished() const override { return index_ >= stages_.size(); }

  Stage& stage(std::size_t i) {
    MMN_REQUIRE(i < stages_.size(), "stage index out of range");
    return *stages_[i];
  }
  const Stage& stage(std::size_t i) const {
    MMN_REQUIRE(i < stages_.size(), "stage index out of range");
    return *stages_[i];
  }

 private:
  std::vector<std::unique_ptr<Stage>> stages_;
  std::size_t index_ = 0;
};

using SequenceProcess = BasicSequenceProcess<>;
using SteppedSequenceProcess = BasicSequenceProcess<SteppedProcess>;

}  // namespace mmn
