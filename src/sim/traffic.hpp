// Open-loop traffic generation and per-class latency accounting.
//
// Everything the repo ran before this header was closed-loop: a protocol
// starts, contends, terminates.  The multimedia MAC literature the paper
// feeds into (PAPERS.md) evaluates the opposite regime — an open-loop
// arrival process pushes packets at the stations regardless of how the
// channel is doing, and the discipline is judged by its throughput-vs-load
// and delay-vs-load curves.  Two pieces live here:
//
//   * TrafficSource — a deterministic per-node arrival process (Poisson,
//     periodic on-off bursts, or a constant-rate credit stream).  Every
//     random draw comes from the node's OWN forked RNG stream inside its
//     round handler, i.e. shard-owned and slot-aligned, so the
//     scheduler-equivalence argument (ARCHITECTURE.md) covers open-loop
//     runs unchanged: serial and parallel sweeps are bit-identical.
//
//   * LatencyRecorder — per-shard, cache-line-aligned log2-bucket delay
//     histograms plus arrival/delivery counters, one block per scheduler
//     shard, owned by RuntimeCore.  record() is two array increments and
//     an add into the recording node's shard block (no atomics — shards
//     are exclusive to their worker), and the blocks are sized once at
//     reset, so a warmed-up open-loop round allocates nothing
//     (tests/test_alloc.cpp pins this).  Reads merge the blocks
//     shard-major — addition is commutative, so the merged histogram is
//     the multiset of samples regardless of how nodes were sharded — and
//     report per-class p50/p90/p99 delay, backlog, and goodput.
#pragma once

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "sim/message.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace mmn::sim {

enum class ArrivalKind : std::uint8_t {
  kPoisson,   ///< iid Poisson(rate) arrivals per slot
  kOnOff,     ///< periodic bursts: `burst` arrivals per ON slot, silence OFF
  kConstant,  ///< deterministic credit stream at exactly `rate` per slot
};

struct TrafficConfig {
  ArrivalKind kind = ArrivalKind::kPoisson;
  /// Mean arrivals per slot (Poisson, Constant).  Ignored by kOnOff, whose
  /// rate is burst * on_slots / (on_slots + off_slots) by construction.
  double rate = 0.5;
  std::uint32_t on_slots = 8;    ///< kOnOff: ON prefix of each cycle
  std::uint32_t off_slots = 24;  ///< kOnOff: silent suffix of each cycle
  std::uint32_t burst = 1;       ///< kOnOff: arrivals per ON slot
  std::uint64_t phase = 0;       ///< kOnOff: cycle position at slot 0
};

/// One node's arrival process.  arrivals() is called exactly once per slot,
/// in the node's own round handler; the draw order is therefore a pure
/// function of (seed, node, slot) and independent of the scheduler.
class TrafficSource {
 public:
  explicit TrafficSource(const TrafficConfig& config);

  /// Arrivals materializing this slot.  Advances the process by one slot.
  std::uint32_t arrivals(Rng& rng);

  const TrafficConfig& config() const { return config_; }

 private:
  TrafficConfig config_;
  double poisson_floor_ = 0.0;  ///< exp(-rate), precomputed
  double credit_ = 0.0;         ///< kConstant accumulator
  std::uint64_t phase_ = 0;     ///< kOnOff cycle position
};

/// Per-class steady-state report, derived from the merged histogram.
struct QosSummary {
  std::uint64_t arrivals = 0;
  std::uint64_t delivered = 0;
  std::uint64_t delay_sum = 0;
  std::uint64_t delay_sq_sum = 0;
  std::uint64_t p50 = 0;  ///< log2-bucket upper bounds, in slots
  std::uint64_t p90 = 0;
  std::uint64_t p99 = 0;

  bool operator==(const QosSummary&) const = default;

  std::uint64_t backlog() const { return arrivals - delivered; }
  double mean_delay() const {
    return delivered == 0
               ? 0.0
               : static_cast<double>(delay_sum) / static_cast<double>(delivered);
  }
  /// Inter-delivery delay variation: the standard deviation of the delay
  /// samples, sqrt(E[d^2] - E[d]^2), in slots.  Reported next to the
  /// percentiles — voice-class jitter is the QoS figure the percentile
  /// tail alone cannot show (a tight p99 can still wobble inside it).
  /// The difference is clamped at 0 against floating-point cancellation.
  double jitter() const {
    if (delivered == 0) return 0.0;
    const double mean = mean_delay();
    const double mean_sq = static_cast<double>(delay_sq_sum) /
                           static_cast<double>(delivered);
    const double var = mean_sq - mean * mean;
    return var > 0.0 ? std::sqrt(var) : 0.0;
  }
  /// Delivered packets per slot — the per-class goodput of the run.
  double goodput(std::uint64_t slots) const {
    return slots == 0
               ? 0.0
               : static_cast<double>(delivered) / static_cast<double>(slots);
  }
};

/// Fixed-size log2 delay histogram block for one scheduler shard, plus the
/// per-class arrival/delivery counters the backlog and goodput reports
/// derive from.  64-byte aligned: adjacent shards' blocks are written by
/// different workers on the delivery hot path.
struct alignas(64) LatencyBlock {
  /// Bucket b holds delays d with std::bit_width(d) == b: bucket 0 is the
  /// same-slot delivery (d = 0), bucket b >= 1 covers [2^(b-1), 2^b - 1].
  static constexpr std::size_t kBuckets = 40;  // delays up to 2^39 slots

  std::array<std::array<std::uint64_t, kBuckets>, kNumQosClasses> hist{};
  std::array<std::uint64_t, kNumQosClasses> arrivals{};
  std::array<std::uint64_t, kNumQosClasses> delivered{};
  std::array<std::uint64_t, kNumQosClasses> delay_sum{};
  /// Sum of squared delays, for the jitter (delay standard deviation)
  /// report.  Headroom: delays are slot counts bounded by the run horizon
  /// (< 2^32 in any configured run), so each square fits 2^64 with > 2^31
  /// samples of margin before overflow.
  std::array<std::uint64_t, kNumQosClasses> delay_sq_sum{};

  static std::size_t bucket_of(std::uint64_t delay_slots) {
    const auto b = static_cast<std::size_t>(std::bit_width(delay_slots));
    return b < kBuckets ? b : kBuckets - 1;
  }

  /// Inclusive upper delay bound of a bucket (what the quantile reports).
  static std::uint64_t bucket_upper(std::size_t bucket) {
    return bucket == 0 ? 0 : (std::uint64_t{1} << bucket) - 1;
  }

  void note_arrivals(QosClass cls, std::uint64_t count) {
    arrivals[static_cast<std::size_t>(cls)] += count;
  }

  void record(QosClass cls, std::uint64_t delay_slots) {
    const auto c = static_cast<std::size_t>(cls);
    ++hist[c][bucket_of(delay_slots)];
    ++delivered[c];
    delay_sum[c] += delay_slots;
    delay_sq_sum[c] += delay_slots * delay_slots;
  }

  /// Shard-major fold: accumulates `other` into this block.
  void merge(const LatencyBlock& other);

  /// Per-class percentiles/backlog/goodput inputs of this block.
  QosSummary summary(QosClass cls) const;
};

/// The RuntimeCore-owned recorder: one LatencyBlock per scheduler shard,
/// sized once at reset (zero steady-state allocation); NodeContext /
/// AsyncContext route record_latency() into the acting node's shard block.
class LatencyRecorder {
 public:
  /// Sizes one block per shard.  Called from RuntimeCore's constructor.
  void reset(unsigned shards);

  LatencyBlock& block(unsigned shard) { return blocks_[shard]; }
  unsigned shards() const { return static_cast<unsigned>(blocks_.size()); }

  /// All shard blocks folded in ascending shard order.  Addition commutes,
  /// so the merged block is scheduler-independent even though each sample
  /// lands in the recording node's shard.
  LatencyBlock merged() const;

  /// Per-class percentiles/backlog/goodput inputs from the merged blocks.
  QosSummary summary(QosClass cls) const { return merged().summary(cls); }

  /// Quantile over a merged class histogram: the upper delay bound of the
  /// bucket holding the ceil(q * delivered)-th smallest sample.
  static std::uint64_t quantile(
      const std::array<std::uint64_t, LatencyBlock::kBuckets>& hist,
      std::uint64_t total, double q);

 private:
  std::vector<LatencyBlock> blocks_;
};

}  // namespace mmn::sim
