#include "sim/scheduler.hpp"

#include "support/check.hpp"

namespace mmn::sim {

ParallelScheduler::ParallelScheduler(unsigned num_threads)
    : num_threads_(num_threads), errors_(num_threads) {
  MMN_REQUIRE(num_threads >= 1, "parallel scheduler needs >= 1 thread");
  pool_.reserve(num_threads_);
  for (unsigned s = 0; s < num_threads_; ++s) {
    pool_.emplace_back([this, s] { worker(s); });
  }
}

ParallelScheduler::~ParallelScheduler() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& t : pool_) t.join();
}

void ParallelScheduler::worker(unsigned shard) {
  std::uint64_t seen = 0;
  for (;;) {
    ShardFn fn{};
    {
      std::unique_lock<std::mutex> lock(mu_);
      start_cv_.wait(lock, [&] { return stopping_ || generation_ != seen; });
      if (stopping_) return;
      seen = generation_;
      fn = round_fn_;
    }
    try {
      fn(shard);
    } catch (...) {
      errors_[shard] = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--remaining_ == 0) done_cv_.notify_one();
    }
  }
}

void ParallelScheduler::for_each_shard(ShardFn fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    round_fn_ = fn;
    remaining_ = num_threads_;
    ++generation_;
  }
  start_cv_.notify_all();
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return remaining_ == 0; });
  }
  // Node code may throw (precondition violations are caller bugs surfaced as
  // std::invalid_argument); surface the lowest-shard failure like the serial
  // scheduler surfaces the first one.
  for (std::exception_ptr& err : errors_) {
    if (err) {
      std::exception_ptr first = err;
      for (std::exception_ptr& e : errors_) e = nullptr;
      std::rethrow_exception(first);
    }
  }
}

std::unique_ptr<Scheduler> make_scheduler(unsigned threads) {
  if (threads <= 1) return std::make_unique<SerialScheduler>();
  return std::make_unique<ParallelScheduler>(threads);
}

}  // namespace mmn::sim
