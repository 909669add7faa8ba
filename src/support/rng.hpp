// Deterministic random number generation.
//
// Every randomized component of the library draws from an Rng that is derived
// from (run seed, stream id).  Two runs with the same seed produce identical
// traces; distinct nodes get statistically independent streams.  We implement
// xoshiro256** seeded through SplitMix64 — small, fast, and reproducible
// across platforms (no reliance on unspecified std::uniform_* behaviour).
#pragma once

#include <array>
#include <cstdint>

namespace mmn {

/// SplitMix64 step; used for seeding and for one-shot hashing of ids.
std::uint64_t splitmix64(std::uint64_t& state);

/// Stateless mix of two words into one (for deriving per-node seeds).
std::uint64_t mix64(std::uint64_t a, std::uint64_t b);

class Rng {
 public:
  /// Seeds the generator from a single 64-bit value via SplitMix64.
  explicit Rng(std::uint64_t seed);

  /// Derives an independent stream, e.g. Rng(seed).fork(node_id).
  Rng fork(std::uint64_t stream) const;

  /// Uniform 64-bit word.
  std::uint64_t next_u64();

  /// Uniform integer in [0, bound) for bound >= 1 (unbiased, rejection).
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform double in [0, 1).
  double next_double();

  /// Bernoulli trial with probability p (clamped to [0,1]).
  bool next_bernoulli(double p);

  /// Same stream at the same position.
  bool operator==(const Rng&) const = default;

 private:
  std::array<std::uint64_t, 4> state_{};
  std::uint64_t origin_;  // seed this generator was constructed from
};

}  // namespace mmn
