#include "trace.hpp"

#include <cstdio>

namespace perfbench {
namespace {

struct ClockOrigin {
  std::uint64_t tick = ticks();
  std::chrono::steady_clock::time_point wall = std::chrono::steady_clock::now();
};
const ClockOrigin kOrigin;

}  // namespace

double ns_per_tick() {
  const std::uint64_t t = ticks();
  const auto w = std::chrono::steady_clock::now();
  const double ns = std::chrono::duration<double, std::nano>(w - kOrigin.wall)
                        .count();
  return t > kOrigin.tick ? ns / static_cast<double>(t - kOrigin.tick) : 1.0;
}

const char* span_name(SpanName name) {
  switch (name) {
    case SpanName::kRep: return "rep";
    case SpanName::kGraphBuild: return "graph.build";
    case SpanName::kSimConstruct: return "sim.construct";
    case SpanName::kSimRound: return "sim.round";
    case SpanName::kCoreProcess: return "core.process";
    case SpanName::kChannelSlot: return "channel.slot";
    case SpanName::kExchange: return "shard_comm.exchange";
    case SpanName::kDigest: return "scenario.digest";
  }
  return "?";
}

std::int32_t SpanLog::open(SpanName name) {
  flush_calls();
  const auto id = static_cast<std::int32_t>(spans_.size());
  const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(Span{name, parent, run_, ticks(), 0, 0, 1});
  stack_.push_back(id);
  return id;
}

void SpanLog::close(std::int32_t id) {
  flush_calls();
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end = ticks();
  s.busy = s.end - s.start;
  stack_.pop_back();
}

void SpanLog::leaf(SpanName name, std::uint64_t start, std::uint64_t end) {
  const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(Span{name, parent, run_, start, end, end - start, 1});
}

void SpanLog::flush_calls() {
  if (agg_count_ == 0) return;
  const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(Span{SpanName::kCoreProcess, parent, run_, agg_start_,
                        agg_end_, agg_busy_, agg_count_});
  agg_busy_ = 0;
  agg_count_ = 0;
}

bool SpanLog::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) return false;
  const double k = ns_per_tick();
  const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start;
  if (std::ftell(f) == 0) {
    std::fprintf(f, "run,id,parent,name,start_ns,end_ns,busy_ns,count\n");
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%u,%zu,%d,%s,%.0f,%.0f,%.0f,%llu\n", s.run, i, s.parent,
                 span_name(s.name), static_cast<double>(s.start - t0) * k,
                 static_cast<double>(s.end - t0) * k,
                 static_cast<double>(s.busy) * k,
                 static_cast<unsigned long long>(s.count));
  }
  return std::fclose(f) == 0;
}

mmn::sim::ProcessFactory timed_factory(mmn::sim::ProcessFactory inner,
                                       SpanLog& log, LayerCounts& counts) {
  return [inner = std::move(inner), &log,
          &counts](const mmn::sim::LocalView& v)
             -> std::unique_ptr<mmn::sim::Process> {
    return std::make_unique<TimedProcess>(inner(v), log, counts);
  };
}

mmn::sim::AsyncProcessFactory timed_factory(
    mmn::sim::AsyncProcessFactory inner, SpanLog& log, LayerCounts& counts) {
  return [inner = std::move(inner), &log,
          &counts](const mmn::sim::LocalView& v)
             -> std::unique_ptr<mmn::sim::AsyncProcess> {
    return std::make_unique<TimedAsyncProcess>(inner(v), log, counts);
  };
}

mmn::sim::SlotObservation TimedDiscipline::slot(
    std::span<const mmn::sim::ChannelWrite> writes, mmn::sim::Channel& channel,
    mmn::Metrics& metrics) {
  const std::uint64_t t0 = ticks();
  mmn::sim::SlotObservation obs = inner_->slot(writes, channel, metrics);
  log_->leaf(SpanName::kChannelSlot, t0, ticks());
  counts_->slots_busy += obs.idle() ? 0 : 1;
  counts_->slots_success += obs.success() ? 1 : 0;
  const std::uint64_t backlog = inner_->backlog();
  if (backlog > counts_->backlog_max) counts_->backlog_max = backlog;
  return obs;
}

std::unique_ptr<mmn::sim::ChannelDiscipline> make_discipline(
    mmn::sim::DisciplineKind kind, std::uint64_t seed, SpanLog* log,
    LayerCounts* counts) {
  auto inner =
      mmn::sim::make_discipline(kind, mmn::sim::UnslottedConfig{}, seed);
  if (log == nullptr) return inner;
  return std::make_unique<TimedDiscipline>(std::move(inner), *log, *counts);
}

}  // namespace perfbench
