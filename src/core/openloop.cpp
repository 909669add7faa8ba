#include "core/openloop.hpp"

#include <cmath>
#include <utility>

#include "support/check.hpp"

namespace mmn {

namespace {

// Word-level FNV-1a fold, the same mix the scenario registry digests use.
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t word) {
  return (h ^ word) * kFnvPrime;
}

/// Shapes one node's TrafficConfig from the run config.  Poisson and
/// constant sources run at the per-node rate directly; on-off sources keep
/// the same mean rate as bursts of 4 packets in one ON slot per cycle, with
/// the cycle phase staggered by node id so the aggregate is a rolling wave
/// of bursts rather than n synchronized ones.
sim::TrafficConfig shape_traffic(const OpenLoopConfig& config, NodeId self,
                                 NodeId n) {
  MMN_REQUIRE(n >= 1, "open-loop stations need a non-empty network");
  const double rate = config.offered / static_cast<double>(n);
  sim::TrafficConfig tc;
  tc.kind = config.arrivals;
  switch (config.arrivals) {
    case sim::ArrivalKind::kPoisson:
    case sim::ArrivalKind::kConstant:
      tc.rate = rate;
      break;
    case sim::ArrivalKind::kOnOff: {
      MMN_REQUIRE(rate > 0.0, "on-off stations need a positive offered load");
      tc.burst = 4;
      tc.on_slots = 1;
      const auto cycle = static_cast<std::uint64_t>(
          std::max<long long>(2, std::llround(4.0 / rate)));
      tc.off_slots = static_cast<std::uint32_t>(cycle - 1);
      tc.phase = (static_cast<std::uint64_t>(self) * 13) % cycle;
      break;
    }
  }
  return tc;
}

}  // namespace

OpenLoopStation::OpenLoopStation(const sim::LocalView& view,
                                 const OpenLoopConfig& config)
    : config(config), source(shape_traffic(config, view.self, view.n)) {
  double sum = 0.0;
  for (const double m : config.mix) {
    MMN_REQUIRE(m >= 0.0, "class mix weights must be non-negative");
    sum += m;
  }
  MMN_REQUIRE(sum > 0.0, "class mix must have positive total weight");
  double acc = 0.0;
  for (std::size_t c = 0; c < sim::kNumQosClasses; ++c) {
    acc += config.mix[c] / sum;
    cum_mix[c] = acc;
  }
  cum_mix[sim::kNumQosClasses - 1] = 1.0;  // immune to rounding drift
  // Pre-size every class FIFO: at low per-node rates a class queue can see
  // its first arrival long after any warmup window, and that first
  // push_back must not be the allocation that breaks the zero-steady-state
  // guarantee (tests/test_alloc.cpp).  Backlog beyond this still grows the
  // vector — that is the saturated regime, not steady state.
  for (SlotQueue& q : queues) q.buf.reserve(8);
}

void OpenLoopStation::fold_gossip(NodeId from, const sim::Packet& pkt) {
  ++counters.gossip_seen;
  std::uint64_t h = counters.gossip_checksum;
  h = fnv_mix(h, from);
  h = fnv_mix(h, static_cast<std::uint64_t>(pkt[0]));
  h = fnv_mix(h, static_cast<std::uint64_t>(pkt[1]));
  counters.gossip_checksum = h;
}

std::uint64_t OpenLoopStation::digest_word() const {
  std::uint64_t h = kFnvOffset;
  for (std::size_t c = 0; c < sim::kNumQosClasses; ++c) {
    h = fnv_mix(h, counters.arrivals[c]);
    h = fnv_mix(h, counters.delivered[c]);
    h = fnv_mix(h, counters.delay_sum[c]);
    h = fnv_mix(h, queues[c].size());
    h = fnv_mix(h, queues[c].empty() ? ~std::uint64_t{0} : queues[c].front());
  }
  h = fnv_mix(h, counters.gossip_seen);
  h = fnv_mix(h, counters.gossip_checksum);
  return h;
}

// ---- synchronous station ---------------------------------------------------

OpenLoopProcess::OpenLoopProcess(const sim::LocalView& view,
                                 const OpenLoopConfig& config)
    : state_(view, config), done_(config.horizon == 0) {}

void OpenLoopProcess::round(sim::NodeContext& ctx) {
  const std::uint64_t r = ctx.round();
  // The observation in hand is the outcome of round r - 1's slot.
  const sim::SlotObservation& obs = ctx.slot();
  if (obs.success() && obs.writer == ctx.self() &&
      sim::qos_base_type(obs.payload.type()) == kLoadPacketType) {
    state_.delivered(ctx, obs.payload, r - 1);
  }
  for (const sim::Received& msg : ctx.inbox()) {
    if (msg.packet().type() == kLoadNotifyType) {
      state_.fold_gossip(msg.from, msg.packet());
    }
  }
  if (r < state_.config.horizon) {
    state_.arrive(ctx, r);
  } else {
    done_ = true;  // generation over; the engine drains the backlog
  }
  if (state_.head_class() >= 0) {
    ctx.channel_write(state_.head_packet());
  }
}

// ---- asynchronous station --------------------------------------------------

AsyncOpenLoopProcess::AsyncOpenLoopProcess(const sim::LocalView& view,
                                           const OpenLoopConfig& config)
    : state_(view, config), done_(config.horizon == 0) {}

void AsyncOpenLoopProcess::start(sim::AsyncContext& ctx) {
  if (done_) return;
  state_.arrive(ctx, 0);
  if (state_.head_class() >= 0) {
    ctx.channel_write(state_.head_packet());
  }
}

void AsyncOpenLoopProcess::on_message(const sim::Received& msg,
                                      sim::AsyncContext& ctx) {
  (void)ctx;
  if (msg.packet().type() == kLoadNotifyType) {
    state_.fold_gossip(msg.from, msg.packet());
  }
}

void AsyncOpenLoopProcess::on_slot(const sim::SlotObservation& obs,
                                   sim::AsyncContext& ctx) {
  // slot_index() is the slot now in progress; obs ended slot_index() - 1.
  const std::uint64_t s = ctx.slot_index();
  if (obs.success() && obs.writer == ctx.self() &&
      sim::qos_base_type(obs.payload.type()) == kLoadPacketType) {
    state_.delivered(ctx, obs.payload, s - 1);
  }
  if (s < state_.config.horizon) {
    state_.arrive(ctx, s);
  } else {
    done_ = true;
  }
  if (state_.head_class() >= 0) {
    ctx.channel_write(state_.head_packet());
  }
}

// ---- factories and the digest ----------------------------------------------

sim::ProcessFactory make_open_loop_factory(const OpenLoopConfig& config) {
  return [config](const sim::LocalView& view) {
    return std::make_unique<OpenLoopProcess>(view, config);
  };
}

sim::AsyncProcessFactory make_open_loop_async_factory(
    const OpenLoopConfig& config) {
  return [config](const sim::LocalView& view) {
    return std::make_unique<AsyncOpenLoopProcess>(view, config);
  };
}

std::uint64_t open_loop_digest(
    NodeId n, const std::function<const OpenLoopStats&(NodeId)>& at,
    NodeId begin, std::uint64_t h0) {
  std::uint64_t h = h0;
  for (NodeId i = 0; i < n; ++i) {
    h = fnv_mix(h, at(begin + i).digest_word());
  }
  return h;
}

}  // namespace mmn
