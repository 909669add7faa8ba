#include "core/global_function.hpp"

#include <cmath>
#include <numeric>
#include <optional>

#include "channel/capetanakis.hpp"
#include "channel/pseudo_bayesian.hpp"
#include "core/partition_det.hpp"
#include "core/partition_rand.hpp"
#include "support/check.hpp"
#include "support/math.hpp"

namespace mmn {
namespace {

constexpr std::uint16_t kHello = 161;    // child -> parent census
constexpr std::uint16_t kFold = 162;     // [partial] convergecast
constexpr std::uint16_t kPartial = 163;  // [partial] channel broadcast

/// The global stage's public state, one per engine (or rank): a listener
/// copy of the channel resolver — Capetanakis (1979) or Rivest's
/// pseudo-Bayesian rule, both pure functions of the public slot outcomes —
/// and the semigroup fold of the partials its successes carry.  The engine
/// folds it once per slot for every node; its event is the stage's end.
class GlobalStageFold final : public sim::PublicFold {
 public:
  GlobalStageFold(NodeId n, GlobalFunctionConfig config) : config_(config) {
    if (config.variant == GlobalFunctionConfig::Variant::kDeterministic) {
      capetanakis_.emplace(n);
    } else {
      randomized_.emplace(2.0 * static_cast<double>(isqrt_ceil(n)));
    }
  }

  bool fold(const sim::SlotObservation& obs) override {
    // A slot the resolver counts as a success (its success_count advances;
    // the randomized scheduler ignores busy-tone lanes) contributes its
    // partial, in schedule order.
    const std::uint64_t before = success_count();
    if (capetanakis_) {
      capetanakis_->observe(obs);
    } else {
      randomized_->observe(obs);
    }
    counted_writer_ = kNoNode;
    if (success_count() != before) {
      result_ = folded_ ? semigroup_apply(config_.op, result_, obs.payload[0])
                        : obs.payload[0];
      folded_ = true;
      counted_writer_ = obs.writer;
    }
    MMN_ASSERT(folded_ || !done(), "no partial results on the channel");
    return done();
  }

  bool matches(const GlobalFunctionConfig& config) const {
    return config.variant == config_.variant && config.op == config_.op;
  }

  /// Whether pending station `self` transmits in the upcoming slot; the
  /// randomized decision draws from the station's own `rng`.
  bool transmits(NodeId self, Rng& rng) const {
    return capetanakis_ ? capetanakis_->station_transmits(self)
                        : randomized_->station_transmits(rng);
  }

  /// Writer of the last folded slot if the resolver counted it as a
  /// success, kNoNode otherwise.
  NodeId counted_writer() const { return counted_writer_; }

  bool done() const {
    return capetanakis_ ? capetanakis_->done() : randomized_->done();
  }

  sim::Word result() const { return result_; }

 private:
  std::uint64_t success_count() const {
    return capetanakis_ ? capetanakis_->success_count()
                        : randomized_->success_count();
  }

  GlobalFunctionConfig config_;
  std::optional<CapetanakisResolver> capetanakis_;
  std::optional<RandomizedScheduler> randomized_;
  NodeId counted_writer_ = kNoNode;
  bool folded_ = false;
  sim::Word result_ = 0;
};

/// Local fold + global channel stage, running after a partition stage whose
/// per-node state it reads through the FragmentState interface.
class ComputeStage final : public SteppedProcess {
 public:
  ComputeStage(const sim::LocalView& view, GlobalFunctionConfig config,
               sim::Word input, const FragmentState* partition)
      : view_(view), config_(config), acc_(input), partition_(partition) {}

  sim::Word result() const {
    MMN_REQUIRE(finished(), "global function still running");
    return result_;
  }

 protected:
  // Step 0: HELLO census (2 fixed rounds: send + deliver).
  // Step 1: fragment-local fold into the core (barrier).
  // Step 2: global stage on the channel (observed).
  std::uint64_t num_steps() const override { return 3; }

  StepSpec step_spec(std::uint64_t step) const override {
    if (step == 0) return {StepKind::kFixed, 2};
    if (step == 1) return {};
    return {StepKind::kObserved, 0};
  }

  void step_begin(std::uint64_t step, sim::NodeContext& ctx) override {
    switch (step) {
      case 0:
        if (!is_root()) {
          ctx.send(partition_->tree_parent_edge(), sim::Packet(kHello));
        }
        break;
      case 1:
        if (children_ == 0 && !is_root()) {
          ctx.send(partition_->tree_parent_edge(),
                   sim::Packet(kFold, {acc_}));
          sent_fold_ = true;
        }
        break;
      case 2:
        // Every node begins the stage in the same round, so all share one
        // fold; only the fragment roots contend.
        fold_ = &ctx.public_fold<GlobalStageFold>(
            [&] { return GlobalStageFold(view_.n, config_); });
        MMN_REQUIRE(fold_->matches(config_),
                    "global stages beginning together must share a config");
        pending_ = is_root();
        break;
      default:
        MMN_ASSERT(false, "unexpected step");
    }
  }

  void on_message(std::uint64_t /*step*/, const sim::Received& msg,
                  sim::NodeContext& ctx) override {
    switch (msg.packet().type()) {
      case kHello:
        ++children_;
        break;
      case kFold:
        acc_ = semigroup_apply(config_.op, acc_, msg.packet()[0]);
        ++received_;
        MMN_ASSERT(received_ <= children_, "more folds than children");
        if (received_ == children_ && !is_root() && !sent_fold_) {
          ctx.send(partition_->tree_parent_edge(), sim::Packet(kFold, {acc_}));
          sent_fold_ = true;
        }
        break;
      default:
        MMN_ASSERT(false, "unexpected packet in global function");
    }
  }

  void step_round(std::uint64_t step, sim::NodeContext& ctx) override {
    // Decide first, construct the packet only on a transmitting round:
    // the Packet constructor's word-array zeroing is not free.
    if (step == 2 && pending_ && fold_->transmits(view_.self, ctx.rng())) {
      ctx.channel_write(sim::Packet(kPartial, {acc_}));
    }
  }

  void on_slot(std::uint64_t slot_step, const sim::SlotObservation&,
               sim::NodeContext&) override {
    if (slot_step != 2) return;
    // The engine folded the slot before this round; a pending root is
    // stepped every round, so it sees the slot its partial went through.
    if (pending_ && fold_->counted_writer() == view_.self) pending_ = false;
    if (fold_->done()) result_ = fold_->result();
  }

  bool observed_end(std::uint64_t) const override { return fold_->done(); }

  // Only a pending root acts in the global stage; everyone else (and a
  // root once its partial went through) dozes until the fold's end event.
  bool step_dormant(std::uint64_t step) const override {
    return step == 2 && !pending_;
  }

 private:
  bool is_root() const { return partition_->tree_parent() == view_.self; }

  const sim::LocalView& view_;
  GlobalFunctionConfig config_;
  sim::Word acc_;
  const FragmentState* partition_;
  std::uint32_t children_ = 0;
  std::uint32_t received_ = 0;
  bool sent_fold_ = false;
  bool pending_ = false;  ///< a root whose partial has not gone through
  const GlobalStageFold* fold_ = nullptr;
  sim::Word result_ = 0;
};

}  // namespace

sim::Word semigroup_apply(SemigroupOp op, sim::Word a, sim::Word b) {
  switch (op) {
    case SemigroupOp::kSum:
      return a + b;
    case SemigroupOp::kMin:
      return a < b ? a : b;
    case SemigroupOp::kMax:
      return a > b ? a : b;
    case SemigroupOp::kXor:
      return a ^ b;
    case SemigroupOp::kGcd:
      return std::gcd(a, b);
  }
  MMN_ASSERT(false, "unknown semigroup operation");
  return 0;
}

int balanced_phase_count(NodeId n) {
  if (n <= 2) return partition_phases(n);
  const double target = std::sqrt(static_cast<double>(n) *
                                  ilog2_ceil(n) /
                                  std::max(1, log_star(n)));
  int p = partition_phases(n);
  const int cap = ilog2_floor(n) + 1;
  while (p < cap && (1u << p) < target) ++p;
  return p;
}

GlobalFunctionProcess::GlobalFunctionProcess(const sim::LocalView& view,
                                             GlobalFunctionConfig config,
                                             sim::Word input) {
  std::vector<std::unique_ptr<SteppedProcess>> stages;
  const FragmentState* partition = nullptr;
  if (config.variant == GlobalFunctionConfig::Variant::kDeterministic) {
    PartitionDetConfig pconfig;
    if (config.balanced) pconfig.phases = balanced_phase_count(view.n);
    auto stage = std::make_unique<PartitionDetProcess>(view, pconfig);
    partition = stage.get();
    stages.push_back(std::move(stage));
  } else {
    MMN_REQUIRE(!config.balanced,
                "the balanced refinement applies to the deterministic variant");
    auto stage =
        std::make_unique<PartitionRandProcess>(view, PartitionRandConfig{});
    partition = stage.get();
    stages.push_back(std::move(stage));
  }
  auto compute = std::make_unique<ComputeStage>(view, config, input, partition);
  compute_stage_ = compute.get();
  stages.push_back(std::move(compute));
  sequence_ = std::make_unique<SteppedSequenceProcess>(std::move(stages));
}

void GlobalFunctionProcess::round(sim::NodeContext& ctx) {
  sequence_->round(ctx);
}

bool GlobalFunctionProcess::finished() const { return sequence_->finished(); }

sim::Word GlobalFunctionProcess::result() const {
  return static_cast<const ComputeStage*>(compute_stage_)->result();
}

}  // namespace mmn
