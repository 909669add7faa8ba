// Computing global sensitive functions in a multimedia network (Section 5).
//
// A global sensitive function folds one input per node under a commutative
// semigroup operation (sum, min, max, xor, gcd, ...); its value depends on
// every input, which is what makes it cost Omega(d) point-to-point, Omega(n)
// broadcast, and Omega(min{d, sqrt(n)}) multimedia (Theorem 2).
//
// The multimedia algorithm is the paper's divide-and-conquer scheme:
//   local stage  — partition the network (Section 3 or 4) and fold each
//                  fragment's inputs into its core by broadcast-and-respond;
//   global stage — schedule the O(sqrt(n)) cores on the channel and let every
//                  node learn the fold of the overheard partial results.
//                  That fold, and the resolver state that schedules the
//                  cores, are public: the engine folds one copy per slot
//                  (sim::PublicFold) and every node but a pending core
//                  dozes until the stage ends (core/stepped.hpp).
// The deterministic variant uses the deterministic partition + Capetanakis
// resolution; the randomized variant uses the randomized partition + the
// Metcalfe–Boggs/pseudo-Bayesian scheduler.  The `balanced` flag applies
// Section 5.1's refinement: run the partition for more phases so the local
// and global stages both cost O(sqrt(n log n log* n)).
#pragma once

#include <cstdint>
#include <memory>

#include "core/partition.hpp"
#include "core/stepped.hpp"

namespace mmn {

enum class SemigroupOp : std::uint8_t { kSum, kMin, kMax, kXor, kGcd };

/// Applies the semigroup operation (all are commutative and associative).
sim::Word semigroup_apply(SemigroupOp op, sim::Word a, sim::Word b);

struct GlobalFunctionConfig {
  SemigroupOp op = SemigroupOp::kMin;
  enum class Variant : std::uint8_t { kDeterministic, kRandomized } variant =
      Variant::kDeterministic;
  /// Section 5.1: deepen the partition to balance local and global stages
  /// (deterministic variant only).
  bool balanced = false;
};

/// Partition phase count for the balanced variant: 2^phases ~
/// sqrt(n log n / log* n), equalizing the O(2^p log* n) local stage and the
/// O((n / 2^p) log n) Capetanakis global stage.
int balanced_phase_count(NodeId n);

class GlobalFunctionProcess final : public sim::Process {
 public:
  GlobalFunctionProcess(const sim::LocalView& view, GlobalFunctionConfig config,
                        sim::Word input);

  void round(sim::NodeContext& ctx) override;
  bool finished() const override;

  /// The fold of all inputs; valid once finished (known to *every* node).
  sim::Word result() const;

 private:
  std::unique_ptr<SteppedSequenceProcess> sequence_;
  const sim::Process* compute_stage_ = nullptr;  // owned by sequence_
};

}  // namespace mmn
