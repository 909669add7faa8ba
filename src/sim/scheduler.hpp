// Round schedulers: how the per-node work of one lockstep round is executed.
//
// A Scheduler maps the node set [0, n) onto `shards()` contiguous ascending
// ranges and runs one callback per shard; RuntimeCore's shard loop inside it
// visits the shard's range in ascending order, skipping the nodes that
// sleep or doze (the active set, sim/runtime_core.hpp).  Node code
// stages all its externally visible effects (sends, channel writes, metric
// counts) into a per-shard buffer; RuntimeCore merges the buffers in
// ascending shard order after the barrier.  Because shard-major
// concatenation of ascending per-shard node sequences is exactly ascending
// node order, SerialScheduler and ParallelScheduler produce bit-identical
// traces — same inbox orders, same channel outcomes, same Metrics — for the
// same seed.
//
// SerialScheduler   — one shard, the caller's thread (the seed behavior).
// ParallelScheduler — a persistent std::thread pool; one shard per thread,
//                     one generation per round, barrier on completion.
//                     Exceptions thrown by node code are captured and
//                     rethrown on the calling thread (lowest shard first).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "graph/graph.hpp"

namespace mmn::sim {

class Scheduler {
 public:
  /// The per-node callback of one round: a raw function pointer plus an
  /// untyped environment, invoked once per node.  `shard` identifies the
  /// staging buffer the node's effects must go to.  Must be safe to call
  /// concurrently for nodes of *different* shards (nodes of one shard run
  /// sequentially).  A plain pointer pair — not std::function — so the
  /// per-node call in RuntimeCore's shard loop is a direct indirect call
  /// with no type-erasure thunk, and building one never allocates.
  struct NodeFn {
    using Fn = void (*)(void* env, unsigned shard, NodeId node);
    Fn fn = nullptr;
    void* env = nullptr;

    void operator()(unsigned shard, NodeId node) const {
      fn(env, shard, node);
    }
  };

  /// The per-shard body of one round, in the same raw-pointer form: invoked
  /// once per shard, concurrently for different shards.
  struct ShardFn {
    using Fn = void (*)(void* env, unsigned shard);
    Fn fn = nullptr;
    void* env = nullptr;

    void operator()(unsigned shard) const { fn(env, shard); }
  };

  virtual ~Scheduler() = default;

  virtual unsigned shards() const = 0;

  /// Runs fn once for every shard in [0, shards()); returns once all shards
  /// ran (barrier).
  virtual void for_each_shard(ShardFn fn) = 0;

  /// Contiguous node range [first, last) owned by `shard` of `shards`.
  static std::pair<NodeId, NodeId> shard_range(NodeId n, unsigned shard,
                                               unsigned shards) {
    const std::uint64_t nn = n;
    return {static_cast<NodeId>(nn * shard / shards),
            static_cast<NodeId>(nn * (shard + 1) / shards)};
  }
};

class SerialScheduler final : public Scheduler {
 public:
  unsigned shards() const override { return 1; }
  void for_each_shard(ShardFn fn) override { fn(0); }
};

class ParallelScheduler final : public Scheduler {
 public:
  /// num_threads >= 1 worker threads; one shard each.
  explicit ParallelScheduler(unsigned num_threads);
  ~ParallelScheduler() override;

  ParallelScheduler(const ParallelScheduler&) = delete;
  ParallelScheduler& operator=(const ParallelScheduler&) = delete;

  unsigned shards() const override { return num_threads_; }
  void for_each_shard(ShardFn fn) override;

 private:
  void worker(unsigned shard);

  unsigned num_threads_;
  std::vector<std::thread> pool_;
  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;
  unsigned remaining_ = 0;
  ShardFn round_fn_{};  // two raw pointers; copied, never allocates
  bool stopping_ = false;
  std::vector<std::exception_ptr> errors_;
};

/// threads <= 1 gives the serial scheduler, otherwise a parallel one.
std::unique_ptr<Scheduler> make_scheduler(unsigned threads);

}  // namespace mmn::sim
