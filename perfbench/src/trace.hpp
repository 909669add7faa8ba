// Outside-in tracing for the benchmark: spans recorded from the benchmark's
// own code around calls into the simulator's public layers, and the
// decorators that make those calls observable without touching src/.
//
//   graph       build_topology / build_topology_window   span "graph.build"
//   sim         engine constructor, one step(1) per round "sim.construct",
//                                                          "sim.round"
//   core        Process / AsyncProcess handlers, through  "core.process"
//               a decorating factory (TimedProcess)       (aggregated)
//   channel     ChannelDiscipline::slot, through a        "channel.slot"
//               decorator around make_discipline
//   shard_comm  Transport::exchange, through a decorator  "shard_comm.exchange"
//               handed to RankEngine
//   scenario    the digest                                "scenario.digest"
//
// Spans live in memory (name, start, end, parent, run id) and are written
// out when the run ends.  Per-node handler calls are far too many to keep
// one span each (ring: 64M a repetition), so each round span gets ONE
// aggregated "core.process" child whose busy time is the sum of the handler
// calls inside it and whose count is the number of calls.  A span's self
// time is its duration minus the busy time of its children.
//
// Every decorator forwards to the wrapped object unchanged; the traced
// digest and Metrics must equal the untraced ones, which the benchmark
// checks on every traced repetition.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "sim/async_engine.hpp"
#include "sim/channel_discipline.hpp"
#include "sim/runtime_core.hpp"
#include "sim/shard_comm.hpp"

namespace perfbench {

/// Span clock: the invariant TSC where there is one (a few ns a read, cheap
/// enough to wrap every handler call), steady_clock elsewhere.
inline std::uint64_t ticks() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

/// Nanoseconds per tick, calibrated against steady_clock over the time since
/// process start (call it after at least a few hundred ms of work).
double ns_per_tick();

enum class SpanName : std::uint8_t {
  kRep,
  kGraphBuild,
  kSimConstruct,
  kSimRound,
  kCoreProcess,
  kChannelSlot,
  kExchange,
  kDigest,
};
const char* span_name(SpanName name);

struct Span {
  SpanName name;
  std::int32_t parent;  ///< index into the log, -1 for a root
  std::uint32_t run;    ///< repetition id
  std::uint64_t start;  ///< ticks
  std::uint64_t end;
  std::uint64_t busy;   ///< ticks of work inside [start, end]
  std::uint64_t count;  ///< calls folded into the span (1 unless aggregated)
};

class SpanLog {
 public:
  void set_run(std::uint32_t run) { run_ = run; }

  /// Opens a span as a child of the innermost open one; returns its index.
  std::int32_t open(SpanName name);
  /// Closes the innermost open span (which must be `id`), first emitting the
  /// aggregated core.process child collected while it was open.
  void close(std::int32_t id);
  /// Records a complete leaf span under the innermost open one.
  void leaf(SpanName name, std::uint64_t start, std::uint64_t end);

  /// Handler-call aggregation for the innermost open span.
  void note_call(std::uint64_t start, std::uint64_t end) {
    if (agg_count_ == 0) agg_start_ = start;
    agg_end_ = end;
    agg_busy_ += end - start;
    ++agg_count_;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Appends the spans to a CSV file (header first when the file is new):
  /// run,id,parent,name,start_ns,end_ns,busy_ns,count — ns since the first
  /// span of the log.
  bool write_csv(const std::string& path) const;

  void clear() {
    spans_.clear();
    stack_.clear();
    agg_count_ = 0;
    agg_busy_ = 0;
  }

 private:
  void flush_calls();

  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::uint32_t run_ = 0;
  std::uint64_t agg_start_ = 0, agg_end_ = 0, agg_busy_ = 0, agg_count_ = 0;
};

/// RAII span.
class Scoped {
 public:
  Scoped(SpanLog* log, SpanName name)
      : log_(log), id_(log != nullptr ? log->open(name) : -1) {}
  ~Scoped() {
    if (log_ != nullptr) log_->close(id_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog* log_;
  std::int32_t id_;
};

/// Counters kept at the same boundaries as the spans.
struct LayerCounts {
  std::uint64_t active_node_rounds = 0;  ///< handler rounds with inbox mail
  std::uint64_t node_rounds = 0;         ///< round / on_slot calls
  std::uint64_t slots_busy = 0;
  std::uint64_t slots_success = 0;
  std::uint64_t backlog_max = 0;
  std::uint64_t exchanges = 0;
};

/// Synchronous process decorator: times round(), forwards everything.
class TimedProcess final : public mmn::sim::Process {
 public:
  TimedProcess(std::unique_ptr<mmn::sim::Process> inner, SpanLog& log,
               LayerCounts& counts)
      : inner_(std::move(inner)), log_(&log), counts_(&counts) {}

  void round(mmn::sim::NodeContext& ctx) override {
    counts_->active_node_rounds += ctx.inbox().empty() ? 0 : 1;
    ++counts_->node_rounds;
    const std::uint64_t t0 = ticks();
    inner_->round(ctx);
    log_->note_call(t0, ticks());
  }
  bool finished() const override { return inner_->finished(); }

  const mmn::sim::Process& inner() const { return *inner_; }

 private:
  std::unique_ptr<mmn::sim::Process> inner_;
  SpanLog* log_;
  LayerCounts* counts_;
};

/// Asynchronous process decorator.  A node-slot is active when at least one
/// message reached the node since its previous on_slot.
class TimedAsyncProcess final : public mmn::sim::AsyncProcess {
 public:
  TimedAsyncProcess(std::unique_ptr<mmn::sim::AsyncProcess> inner,
                    SpanLog& log, LayerCounts& counts)
      : inner_(std::move(inner)), log_(&log), counts_(&counts) {}

  void start(mmn::sim::AsyncContext& ctx) override {
    const std::uint64_t t0 = ticks();
    inner_->start(ctx);
    log_->note_call(t0, ticks());
  }
  void on_message(const mmn::sim::Received& msg,
                  mmn::sim::AsyncContext& ctx) override {
    got_mail_ = true;
    const std::uint64_t t0 = ticks();
    inner_->on_message(msg, ctx);
    log_->note_call(t0, ticks());
  }
  void on_slot(const mmn::sim::SlotObservation& obs,
               mmn::sim::AsyncContext& ctx) override {
    counts_->active_node_rounds += got_mail_ ? 1 : 0;
    ++counts_->node_rounds;
    got_mail_ = false;
    const std::uint64_t t0 = ticks();
    inner_->on_slot(obs, ctx);
    log_->note_call(t0, ticks());
  }
  bool finished() const override { return inner_->finished(); }

  const mmn::sim::AsyncProcess& inner() const { return *inner_; }

 private:
  std::unique_ptr<mmn::sim::AsyncProcess> inner_;
  SpanLog* log_;
  LayerCounts* counts_;
  bool got_mail_ = false;
};

mmn::sim::ProcessFactory timed_factory(mmn::sim::ProcessFactory inner,
                                       SpanLog& log, LayerCounts& counts);
mmn::sim::AsyncProcessFactory timed_factory(
    mmn::sim::AsyncProcessFactory inner, SpanLog& log, LayerCounts& counts);

/// Discipline decorator: times slot() and tallies its outcomes.
class TimedDiscipline final : public mmn::sim::ChannelDiscipline {
 public:
  TimedDiscipline(std::unique_ptr<mmn::sim::ChannelDiscipline> inner,
                  SpanLog& log, LayerCounts& counts)
      : inner_(std::move(inner)), log_(&log), counts_(&counts) {}

  const char* name() const override { return inner_->name(); }
  void reset(mmn::NodeId n) override { inner_->reset(n); }
  mmn::sim::SlotObservation slot(std::span<const mmn::sim::ChannelWrite> writes,
                                 mmn::sim::Channel& channel,
                                 mmn::Metrics& metrics) override;
  std::size_t backlog() const override { return inner_->backlog(); }
  bool defers() const override { return inner_->defers(); }
  void stifle(mmn::NodeId v) override { inner_->stifle(v); }

 private:
  std::unique_ptr<mmn::sim::ChannelDiscipline> inner_;
  SpanLog* log_;
  LayerCounts* counts_;
};

/// make_discipline, decorated when `log` is set.
std::unique_ptr<mmn::sim::ChannelDiscipline> make_discipline(
    mmn::sim::DisciplineKind kind, std::uint64_t seed, SpanLog* log,
    LayerCounts* counts);

/// Transport decorator handed to RankEngine: times exchange().
class TimedTransport final : public mmn::sim::shard_comm::Transport {
 public:
  TimedTransport(mmn::sim::shard_comm::Transport& inner, SpanLog& log,
                 LayerCounts& counts)
      : inner_(&inner), log_(&log), counts_(&counts) {}

  unsigned rank() const override { return inner_->rank(); }
  unsigned ranks() const override { return inner_->ranks(); }
  void exchange(unsigned peer, const std::uint8_t* data, std::size_t bytes,
                std::vector<std::uint8_t>& in) override {
    ++counts_->exchanges;
    const std::uint64_t t0 = ticks();
    inner_->exchange(peer, data, bytes, in);
    log_->leaf(SpanName::kExchange, t0, ticks());
  }
  std::uint64_t bytes_out() const override { return inner_->bytes_out(); }
  std::uint64_t bytes_in() const override { return inner_->bytes_in(); }

 private:
  mmn::sim::shard_comm::Transport* inner_;
  SpanLog* log_;
  LayerCounts* counts_;
};

}  // namespace perfbench
