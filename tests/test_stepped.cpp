// Tests for the stepped-protocol framework: barrier steps end exactly at
// global quiescence, fixed steps take their precomputed length, observed
// steps follow shared channel verdicts, and sequences stay aligned.
#include <vector>

#include <gtest/gtest.h>

#include "channel/capetanakis.hpp"
#include "core/stepped.hpp"
#include "graph/generators.hpp"
#include "sim/engine.hpp"

namespace mmn {
namespace {

constexpr std::uint16_t kWave = 21;

/// Three barrier steps; in each, node 0 starts a wave that travels to the end
/// of the path.  Nodes record the engine round at which each step began.
class WaveProcess final : public SteppedProcess {
 public:
  explicit WaveProcess(const sim::LocalView& view) : view_(view) {}

  std::vector<std::uint64_t> begin_rounds_;

 protected:
  std::uint64_t num_steps() const override { return 3; }
  StepSpec step_spec(std::uint64_t) const override { return {}; }

  void step_begin(std::uint64_t, sim::NodeContext& ctx) override {
    begin_rounds_.push_back(ctx.round());
    if (view_.self == 0) {
      for (const auto& link : view_.links()) {
        if (link.to == 1) ctx.send(link.edge, sim::Packet(kWave));
      }
    }
  }

  void on_message(std::uint64_t, const sim::Received& msg,
                  sim::NodeContext& ctx) override {
    // Forward the wave away from smaller ids.
    for (const auto& link : view_.links()) {
      if (link.to > view_.self && link.to != msg.from) {
        ctx.send(link.edge, sim::Packet(kWave));
      }
    }
  }

 private:
  const sim::LocalView& view_;
};

TEST(Stepped, BarrierStepsAlignAcrossNodes) {
  const Graph g = path(6, 1);
  sim::Engine engine(g, [](const sim::LocalView& v) {
    return std::make_unique<WaveProcess>(v);
  }, 3);
  engine.run(1000);
  const auto& p0 = static_cast<const WaveProcess&>(engine.process(0));
  ASSERT_EQ(p0.begin_rounds_.size(), 3u);
  for (NodeId v = 1; v < 6; ++v) {
    const auto& pv = static_cast<const WaveProcess&>(engine.process(v));
    EXPECT_EQ(pv.begin_rounds_, p0.begin_rounds_) << "node " << v;
  }
  // Each wave takes 5 hops; the barrier cannot fire before the wave ends.
  EXPECT_GE(p0.begin_rounds_[1] - p0.begin_rounds_[0], 5u);
}

/// One fixed step (channel TDMA of n slots), then one barrier step.
class FixedStepProcess final : public SteppedProcess {
 public:
  explicit FixedStepProcess(const sim::LocalView& view) : view_(view) {}

  std::vector<sim::Word> heard_;
  std::uint64_t barrier_begin_round_ = 0;

 protected:
  std::uint64_t num_steps() const override { return 2; }

  StepSpec step_spec(std::uint64_t step) const override {
    if (step == 0) return {StepKind::kFixed, view_.n};
    return {};
  }

  void step_begin(std::uint64_t step, sim::NodeContext& ctx) override {
    if (step == 0) {
      start_round_ = ctx.round();
    } else {
      barrier_begin_round_ = ctx.round();
    }
  }

  void step_round(std::uint64_t step, sim::NodeContext& ctx) override {
    if (step == 0 && ctx.round() - start_round_ == view_.self) {
      ctx.channel_write(sim::Packet(7, {static_cast<sim::Word>(view_.self)}));
    }
  }

  void on_slot(std::uint64_t slot_step, const sim::SlotObservation& obs,
               sim::NodeContext&) override {
    if (slot_step == 0 && obs.success()) heard_.push_back(obs.payload[0]);
  }

  void on_message(std::uint64_t, const sim::Received&,
                  sim::NodeContext&) override {}

 private:
  const sim::LocalView& view_;
  std::uint64_t start_round_ = 0;
};

TEST(Stepped, FixedStepRunsTdmaAndDeliversLastSlot) {
  const Graph g = ring(5, 1);
  sim::Engine engine(g, [](const sim::LocalView& v) {
    return std::make_unique<FixedStepProcess>(v);
  }, 3);
  engine.run(100);
  for (NodeId v = 0; v < 5; ++v) {
    const auto& p = static_cast<const FixedStepProcess&>(engine.process(v));
    // Every node heard all 5 TDMA broadcasts, including the final slot that
    // resolves after the step formally ended.
    EXPECT_EQ(p.heard_, (std::vector<sim::Word>{0, 1, 2, 3, 4})) << v;
    EXPECT_EQ(p.barrier_begin_round_, 5u) << v;
  }
}

/// One observed step: Capetanakis resolution of all nodes with even ids.
/// Each node folds the slots into its own listener and, while pending,
/// transmits when the listener's probe holds its id.
class ObservedStepProcess final : public SteppedProcess {
 public:
  explicit ObservedStepProcess(const sim::LocalView& view)
      : view_(view), resolver_(view.n), pending_(view.self % 2 == 0) {}

  std::vector<sim::Word> schedule_;

 protected:
  std::uint64_t num_steps() const override { return 1; }
  StepSpec step_spec(std::uint64_t) const override {
    return {StepKind::kObserved, 0};
  }
  void step_begin(std::uint64_t, sim::NodeContext&) override {}
  void on_message(std::uint64_t, const sim::Received&,
                  sim::NodeContext&) override {}

  void step_round(std::uint64_t, sim::NodeContext& ctx) override {
    if (pending_ && resolver_.station_transmits(view_.self)) {
      ctx.channel_write(sim::Packet(9, {static_cast<sim::Word>(view_.self)}));
    }
  }

  void on_slot(std::uint64_t, const sim::SlotObservation& obs,
               sim::NodeContext&) override {
    if (resolver_.done()) return;
    const std::uint64_t before = resolver_.success_count();
    resolver_.observe(obs);
    if (resolver_.success_count() == before) return;
    schedule_.push_back(obs.payload[0]);
    if (obs.writer == view_.self) pending_ = false;
  }

  bool observed_end(std::uint64_t) const override { return resolver_.done(); }

 private:
  const sim::LocalView& view_;
  CapetanakisResolver resolver_;
  bool pending_;
};

TEST(Stepped, ObservedStepEndsOnSharedVerdict) {
  const Graph g = ring(8, 1);
  sim::Engine engine(g, [](const sim::LocalView& v) {
    return std::make_unique<ObservedStepProcess>(v);
  }, 3);
  engine.run(200);
  const std::vector<sim::Word> expected{0, 2, 4, 6};
  for (NodeId v = 0; v < 8; ++v) {
    EXPECT_EQ(static_cast<const ObservedStepProcess&>(engine.process(v))
                  .schedule_,
              expected);
  }
}

/// One step of the given kind that reads rounds_in_step() every round and
/// ends after four rounds of it; `dormant` is its step_dormant verdict.
class CounterReadingProcess final : public SteppedProcess {
 public:
  CounterReadingProcess(StepKind kind, bool dormant)
      : kind_(kind), dormant_(dormant) {}

  std::uint64_t last_ = 0;

 protected:
  std::uint64_t num_steps() const override { return 1; }
  StepSpec step_spec(std::uint64_t) const override { return {kind_, 4}; }
  void step_begin(std::uint64_t, sim::NodeContext&) override {}
  void on_message(std::uint64_t, const sim::Received&,
                  sim::NodeContext&) override {}
  void step_round(std::uint64_t, sim::NodeContext&) override {
    last_ = rounds_in_step();
  }
  bool observed_end(std::uint64_t) const override { return last_ >= 3; }
  bool step_dormant(std::uint64_t) const override { return dormant_; }

 private:
  StepKind kind_;
  bool dormant_;
};

void run_counter_reader(StepKind kind, bool dormant) {
  const Graph g = ring(4, 1);
  sim::Engine engine(g, [&](const sim::LocalView&) {
    return std::make_unique<CounterReadingProcess>(kind, dormant);
  }, 3);
  engine.run(100);
}

TEST(Stepped, RoundsInStepIsStaleWhereNodesRest) {
  // Observed step, never dormant: every round runs, the counter is live.
  run_counter_reader(StepKind::kObserved, false);
  EXPECT_DEATH(run_counter_reader(StepKind::kObserved, true),
               "dormant observed step");
  EXPECT_DEATH(run_counter_reader(StepKind::kBarrier, false), "barrier step");
}

TEST(Stepped, SequenceRunsStagesBackToBack) {
  const Graph g = path(4, 1);
  sim::Engine engine(g, [](const sim::LocalView& v) {
    std::vector<std::unique_ptr<SteppedProcess>> stages;
    stages.push_back(std::make_unique<WaveProcess>(v));
    stages.push_back(std::make_unique<WaveProcess>(v));
    return std::make_unique<SteppedSequenceProcess>(std::move(stages));
  }, 3);
  engine.run(1000);
  // Both stages ran: stage 1's begin rounds are all strictly after stage 0's.
  const auto& seq = static_cast<const SteppedSequenceProcess&>(engine.process(0));
  const auto& s0 = static_cast<const WaveProcess&>(seq.stage(0));
  const auto& s1 = static_cast<const WaveProcess&>(seq.stage(1));
  ASSERT_EQ(s0.begin_rounds_.size(), 3u);
  ASSERT_EQ(s1.begin_rounds_.size(), 3u);
  EXPECT_GT(s1.begin_rounds_.front(), s0.begin_rounds_.back());
}

}  // namespace
}  // namespace mmn
