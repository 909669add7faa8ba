#include "sim/traffic.hpp"

#include <cmath>

namespace mmn::sim {

TrafficSource::TrafficSource(const TrafficConfig& config) : config_(config) {
  switch (config_.kind) {
    case ArrivalKind::kPoisson:
      MMN_REQUIRE(config_.rate >= 0.0 && config_.rate <= 32.0,
                  "Poisson rate out of the supported [0, 32] per-slot range");
      poisson_floor_ = std::exp(-config_.rate);
      break;
    case ArrivalKind::kOnOff:
      MMN_REQUIRE(config_.on_slots >= 1, "on-off cycle needs an ON prefix");
      MMN_REQUIRE(config_.burst >= 1, "on-off bursts must carry arrivals");
      phase_ = config_.phase %
               (std::uint64_t{config_.on_slots} + config_.off_slots);
      break;
    case ArrivalKind::kConstant:
      MMN_REQUIRE(config_.rate >= 0.0, "constant rate must be non-negative");
      break;
  }
}

std::uint32_t TrafficSource::arrivals(Rng& rng) {
  switch (config_.kind) {
    case ArrivalKind::kPoisson: {
      // Knuth inversion: multiply uniforms until the product drops below
      // exp(-rate).  The per-slot draw count varies, but every draw happens
      // inside the node's own handler on its own stream, so the consumption
      // pattern is a pure function of (seed, node, slot).
      std::uint32_t k = 0;
      double p = rng.next_double();
      while (p > poisson_floor_) {
        ++k;
        p *= rng.next_double();
      }
      return k;
    }
    case ArrivalKind::kOnOff: {
      // Deterministic periodic burst (the classic voice-activity on-off
      // model with a pinned duty cycle): `burst` arrivals on each of the
      // first on_slots of every cycle, silence for the off_slots after —
      // so the long-run rate is exactly burst * on / (on + off), which
      // tests/test_traffic.cpp pins without confidence intervals.
      const std::uint64_t cycle =
          std::uint64_t{config_.on_slots} + config_.off_slots;
      const bool on = phase_ < config_.on_slots;
      phase_ = (phase_ + 1) % cycle;
      return on ? config_.burst : 0;
    }
    case ArrivalKind::kConstant: {
      credit_ += config_.rate;
      const auto k = static_cast<std::uint32_t>(credit_);
      credit_ -= k;
      return k;
    }
  }
  MMN_REQUIRE(false, "unknown arrival kind");
  return 0;
}

void LatencyBlock::merge(const LatencyBlock& other) {
  for (std::size_t c = 0; c < kNumQosClasses; ++c) {
    for (std::size_t b = 0; b < kBuckets; ++b) hist[c][b] += other.hist[c][b];
    arrivals[c] += other.arrivals[c];
    delivered[c] += other.delivered[c];
    delay_sum[c] += other.delay_sum[c];
    delay_sq_sum[c] += other.delay_sq_sum[c];
  }
}

void LatencyRecorder::reset(unsigned shards) {
  blocks_.assign(shards, LatencyBlock{});
}

LatencyBlock LatencyRecorder::merged() const {
  LatencyBlock out;
  for (const LatencyBlock& b : blocks_) out.merge(b);
  return out;
}

std::uint64_t LatencyRecorder::quantile(
    const std::array<std::uint64_t, LatencyBlock::kBuckets>& hist,
    std::uint64_t total, double q) {
  if (total == 0) return 0;
  // The ceil(q * total)-th smallest sample, 1-based; clamp against the
  // rounding edge q ~ 1.0.
  auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(total)));
  if (rank < 1) rank = 1;
  if (rank > total) rank = total;
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < LatencyBlock::kBuckets; ++b) {
    seen += hist[b];
    if (seen >= rank) return LatencyBlock::bucket_upper(b);
  }
  return LatencyBlock::bucket_upper(LatencyBlock::kBuckets - 1);
}

QosSummary LatencyBlock::summary(QosClass cls) const {
  const auto c = static_cast<std::size_t>(cls);
  QosSummary s;
  s.arrivals = arrivals[c];
  s.delivered = delivered[c];
  s.delay_sum = delay_sum[c];
  s.delay_sq_sum = delay_sq_sum[c];
  s.p50 = LatencyRecorder::quantile(hist[c], delivered[c], 0.50);
  s.p90 = LatencyRecorder::quantile(hist[c], delivered[c], 0.90);
  s.p99 = LatencyRecorder::quantile(hist[c], delivered[c], 0.99);
  return s;
}

}  // namespace mmn::sim
