#include "workload.hpp"

#include <sched.h>
#include <unistd.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>

#include "baselines/p2p_global.hpp"
#include "core/global_function.hpp"
#include "core/openloop.hpp"
#include "graph/generators.hpp"
#include "scenario/registry.hpp"
#include "sim/async_engine.hpp"
#include "sim/engine.hpp"
#include "sim/rank.hpp"
#include "sim/scheduler.hpp"
#include "sim/shard_comm.hpp"

namespace perfbench {

using mmn::Graph;
using mmn::Metrics;
using mmn::NodeId;
namespace scenario = mmn::scenario;
namespace sim = mmn::sim;
namespace shard_comm = mmn::sim::shard_comm;

const std::vector<Workload>& workloads() {
  // Metrics fields: rounds, p2p_messages, slots_idle, slots_success,
  // slots_collision, channel_ticks — as scenario::run reports them.
  static const std::vector<Workload> table = {
      {"ring", "global/min/rand/ring", 16384, Mode::kSync, 1,
       Expect::kGlobalMin, 0x6908de04ffef6325ULL,
       Metrics{3916, 228186, 227, 121, 3568, 0}},
      // 16384, not 65536: the larger the hypercube, the more its time
      // followed other tenants' use of the host's shared cache
      // (perfbench/NOTES.md).
      {"cube", "global/sum/p2p/hypercube", 16384, Mode::kSync, 1,
       Expect::kGlobalSum, 0xe696ea1bcc872325ULL,
       Metrics{51, 1966079, 51, 0, 0, 0}},
      {"resv-async", "load/poisson/resv/ring", 32768, Mode::kAsync, 1,
       Expect::kConservation, 0x25317b987696e0a7ULL,
       Metrics{1842, 1852, 346, 926, 570, 0}},
      // The sharded ring must reproduce the serial ring bit for bit.
      {"ring-r2", "global/min/rand/ring", 16384, Mode::kRanks, 2,
       Expect::kGlobalMin, 0x6908de04ffef6325ULL,
       Metrics{3916, 228186, 227, 121, 3568, 0}},
  };
  return table;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::string check_values(Expect expect, NodeId n,
                         std::span<const sim::Word> values, NodeId first_id) {
  const auto nn = static_cast<sim::Word>(n);
  const sim::Word want = expect == Expect::kGlobalMin ? 1 : nn * (nn + 1) / 2;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (values[i] != want) {
      return "node " + std::to_string(first_id + i) + " holds " +
             std::to_string(values[i]) + ", expected " + std::to_string(want);
    }
  }
  return {};
}

std::string check_conservation(const ClassTotals& t) {
  for (std::size_t c = 0; c < mmn::sim::kNumQosClasses; ++c) {
    const char* cls = sim::qos_name(static_cast<sim::QosClass>(c));
    if (t.arrivals[c] != t.delivered[c] + t.backlog[c]) {
      return std::string("class ") + cls + ": arrivals " +
             std::to_string(t.arrivals[c]) + " != delivered " +
             std::to_string(t.delivered[c]) + " + backlog " +
             std::to_string(t.backlog[c]);
    }
    if (t.recorded_arrivals[c] != t.arrivals[c] ||
        t.recorded_delivered[c] != t.delivered[c]) {
      return std::string("class ") + cls +
             ": latency recorder disagrees with the stations' counters";
    }
  }
  return {};
}

std::string check_pinned(const Workload& w, std::uint64_t seed,
                         std::uint64_t digest, const Metrics& m) {
  if (seed != kPinnedSeed) return {};
  if (digest != w.pinned_digest) return "digest differs from the pinned one";
  if (!(m == w.pinned_metrics)) {
    return "metrics differ from the pinned ones: " + m.to_string();
  }
  return {};
}

void Tally::add(const Rep& rep) {
  ++attempted;
  if (rep.failure.empty()) return;
  ++failed;
  if (failures.size() < 4 &&
      std::find(failures.begin(), failures.end(), rep.failure) ==
          failures.end()) {
    failures.push_back(rep.failure);
  }
}

double peak_rss_mb() {
  rusage self{}, children{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;  // ru_maxrss is KiB on Linux
}

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

const scenario::Scenario& scenario_of(const Workload& w) {
  scenario::register_builtin();
  const scenario::Scenario* s =
      scenario::Registry::instance().find(w.scenario);
  MMN_REQUIRE(s != nullptr, "workload names an unregistered scenario");
  return *s;
}

/// Steps to completion: one step() call untraced, one step(1) per round
/// span traced.  False when the round cap elapsed first.
template <typename Engine>
bool step_to_end(Engine& eng, std::uint64_t cap, SpanLog* log) {
  if (log == nullptr) return eng.step(cap);
  for (std::uint64_t r = 0; r < cap; ++r) {
    Scoped round(log, SpanName::kSimRound);
    if (eng.step(1)) return true;
  }
  return false;
}

/// Layer sums of one process's spans (one repetition), plus the counters
/// kept beside them.  Trivially copyable: ranks ship it to rank 0 raw.
struct LayerTotals {
  double graph_s = 0, construct_s = 0, step_s = 0, core_s = 0, channel_s = 0,
         exchange_s = 0, self_s = 0, digest_s = 0, busy_max_s = 0;
  LayerCounts counts;
  std::uint64_t core_calls = 0, edges = 0, topology_bytes = 0, bytes_out = 0,
                xshard = 0, boundary = 0;

  void merge(const LayerTotals& o) {
    graph_s += o.graph_s;
    construct_s += o.construct_s;
    step_s += o.step_s;
    core_s += o.core_s;
    channel_s += o.channel_s;
    exchange_s += o.exchange_s;
    self_s += o.self_s;
    digest_s += o.digest_s;
    busy_max_s = std::max(busy_max_s, o.busy_max_s);
    counts.active_node_rounds += o.counts.active_node_rounds;
    counts.node_rounds += o.counts.node_rounds;
    // The channel is replicated on every rank: count its slots once.
    counts.slots_busy = std::max(counts.slots_busy, o.counts.slots_busy);
    counts.slots_success =
        std::max(counts.slots_success, o.counts.slots_success);
    counts.backlog_max = std::max(counts.backlog_max, o.counts.backlog_max);
    counts.exchanges += o.counts.exchanges;
    core_calls += o.core_calls;
    edges = std::max(edges, o.edges);  // every window counts all edges
    topology_bytes += o.topology_bytes;
    bytes_out += o.bytes_out;
    xshard += o.xshard;
    boundary += o.boundary;
  }
};

/// Sums the spans of `log` by layer; fills the round durations (us).
LayerTotals sum_spans(const SpanLog& log, std::vector<double>* round_us) {
  const std::vector<Span>& spans = log.spans();
  const double k = ns_per_tick() * 1e-9;
  std::vector<std::uint64_t> covered(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) covered[static_cast<std::size_t>(s.parent)] += s.busy;
  }
  LayerTotals t;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double busy = static_cast<double>(s.busy) * k;
    switch (s.name) {
      case SpanName::kRep: break;
      case SpanName::kGraphBuild: t.graph_s += busy; break;
      case SpanName::kSimConstruct: t.construct_s += busy; break;
      case SpanName::kSimRound:
        t.step_s += busy;
        t.self_s +=
            static_cast<double>(s.busy - std::min(s.busy, covered[i])) * k;
        if (round_us != nullptr) round_us->push_back(busy * 1e6);
        break;
      case SpanName::kCoreProcess:
        t.core_s += busy;
        t.core_calls += s.count;
        break;
      case SpanName::kChannelSlot: t.channel_s += busy; break;
      case SpanName::kExchange: t.exchange_s += busy; break;
      case SpanName::kDigest: t.digest_s += busy; break;
    }
  }
  t.busy_max_s = t.step_s - t.exchange_s;
  return t;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, idx == 0 ? 0 : idx - 1)];
}

double ratio(double a, double b) { return b == 0 ? 0.0 : a / b; }

/// The per-layer metrics of one traced repetition.  `t` is summed over the
/// run's processes (one, or every rank), so on ring-r2 times are rank-seconds
/// and sim.step_s counts each rank's stepping.
std::vector<std::pair<std::string, double>> layer_metrics(
    const LayerTotals& t, const std::vector<double>& round_us, double n,
    double rounds, double p2p, unsigned ranks) {
  const double node_rounds = n * rounds;
  const double busy_mean = (t.step_s - t.exchange_s) / ranks;
  return {
      {"graph.build_s", t.graph_s},
      {"graph.edges", static_cast<double>(t.edges)},
      {"graph.topology_bytes", static_cast<double>(t.topology_bytes)},
      {"sim.construct_s", t.construct_s},
      {"sim.step_s", t.step_s},
      {"sim.rounds", rounds},
      {"sim.round_us.p50", quantile(round_us, 0.50)},
      {"sim.round_us.p99", quantile(round_us, 0.99)},
      {"sim.round_us.max", quantile(round_us, 1.0)},
      {"sim.round_samples", static_cast<double>(round_us.size())},
      {"sim.self_s", t.self_s},
      {"sim.self_ns_per_node_round", ratio(t.self_s * 1e9, node_rounds)},
      {"sim.p2p_messages", p2p},
      {"sim.msgs_per_node_round", ratio(p2p, node_rounds)},
      {"sim.self_ns_per_msg", ratio(t.self_s * 1e9, p2p)},
      {"core.process_s", t.core_s},
      {"core.calls", static_cast<double>(t.core_calls)},
      {"core.ns_per_call",
       ratio(t.core_s * 1e9, static_cast<double>(t.core_calls))},
      {"core.active_share",
       ratio(static_cast<double>(t.counts.active_node_rounds),
             static_cast<double>(t.counts.node_rounds))},
      {"channel.slot_s", t.channel_s},
      {"channel.slots_busy", static_cast<double>(t.counts.slots_busy)},
      {"channel.success_share",
       ratio(static_cast<double>(t.counts.slots_success),
             static_cast<double>(t.counts.slots_busy))},
      {"channel.backlog_max", static_cast<double>(t.counts.backlog_max)},
      {"shard_comm.exchange_s", t.exchange_s},
      {"shard_comm.exchange_share", ratio(t.exchange_s, t.step_s)},
      {"shard_comm.exchanges", static_cast<double>(t.counts.exchanges)},
      {"shard_comm.bytes_out", static_cast<double>(t.bytes_out)},
      {"shard_comm.bytes_per_round",
       ratio(static_cast<double>(t.bytes_out), rounds)},
      {"shard_comm.bytes_per_xshard_msg",
       ratio(static_cast<double>(t.bytes_out), static_cast<double>(t.xshard))},
      {"rank.xshard_msgs", static_cast<double>(t.xshard)},
      {"rank.boundary_edges", static_cast<double>(t.boundary)},
      {"rank.step_imbalance", ratio(t.busy_max_s, busy_mean)},
      {"scenario.digest_s", t.digest_s},
  };
}

sim::Word node_result(Expect expect, const sim::Process& p) {
  if (expect == Expect::kGlobalMin) {
    return dynamic_cast<const mmn::GlobalFunctionProcess&>(p).result();
  }
  return dynamic_cast<const mmn::P2pGlobalProcess&>(p).result();
}

/// Untraced runs read the engine's process; traced ones unwrap the
/// decorator first, so digests see the protocol process either way.
const sim::Process& unwrap(const sim::Process& p, bool traced) {
  return traced ? static_cast<const TimedProcess&>(p).inner() : p;
}
const sim::AsyncProcess& unwrap(const sim::AsyncProcess& p, bool traced) {
  return traced ? static_cast<const TimedAsyncProcess&>(p).inner() : p;
}

void first_failure(std::string& failure, std::string reason) {
  if (failure.empty()) failure = std::move(reason);
}

Rep run_serial(const Workload& w, const scenario::Scenario& s,
               std::uint64_t seed, SpanLog* log) {
  Rep rep;
  LayerCounts counts;
  const bool traced = log != nullptr;
  const auto t0 = Clock::now();
  const std::int32_t rep_span = traced ? log->open(SpanName::kRep) : -1;

  std::optional<Graph> g;
  {
    Scoped span(log, SpanName::kGraphBuild);
    g.emplace(scenario::make_scenario_graph(s, w.n, seed));
  }
  const NodeId n = g->num_nodes();
  std::optional<sim::Engine> sync;
  std::optional<sim::AsyncEngine> async;
  if (w.mode == Mode::kSync) {
    sim::ProcessFactory f = s.make_factory(*g);
    if (traced) f = timed_factory(std::move(f), *log, counts);
    Scoped span(log, SpanName::kSimConstruct);
    sync.emplace(*g, f, seed, nullptr,
                 make_discipline(s.discipline, seed, log, &counts));
  } else {
    sim::AsyncProcessFactory f =
        s.make_async_load_factory(*g, s.default_load);
    if (traced) f = timed_factory(std::move(f), *log, counts);
    Scoped span(log, SpanName::kSimConstruct);
    async.emplace(*g, f, seed, s.async_max_delay_slots, nullptr,
                  make_discipline(s.discipline, seed, log, &counts));
  }
  rep.setup_s = seconds_since(t0);

  const auto t1 = Clock::now();
  const bool completed = sync ? step_to_end(*sync, s.max_rounds, log)
                              : step_to_end(*async, s.max_rounds, log);
  rep.step_s = seconds_since(t1);
  rep.metrics = sync ? sync->metrics() : async->metrics();
  rep.node_rounds = static_cast<std::uint64_t>(n) * rep.metrics.rounds;

  {
    Scoped span(log, SpanName::kDigest);
    if (sync) {
      rep.digest = s.digest(scenario::NodeResults{
          n, [&](NodeId v) -> const sim::Process& {
            return unwrap(sync->process(v), traced);
          }});
    } else {
      rep.digest = s.digest(scenario::NodeResults{
          n, nullptr, [&](NodeId v) -> const sim::AsyncProcess& {
            return unwrap(async->process(v), traced);
          }});
    }
  }

  if (!completed) first_failure(rep.failure, "round cap reached");
  if (w.expect == Expect::kConservation) {
    ClassTotals t;
    for (NodeId v = 0; v < n; ++v) {
      const auto& st = dynamic_cast<const mmn::OpenLoopStats&>(
          unwrap(async->process(v), traced));
      for (std::size_t c = 0; c < sim::kNumQosClasses; ++c) {
        t.arrivals[c] += st.counters().arrivals[c];
        t.delivered[c] += st.counters().delivered[c];
        t.backlog[c] += st.backlog(static_cast<sim::QosClass>(c));
      }
    }
    for (std::size_t c = 0; c < sim::kNumQosClasses; ++c) {
      const sim::QosSummary q =
          async->latency().summary(static_cast<sim::QosClass>(c));
      t.recorded_arrivals[c] = q.arrivals;
      t.recorded_delivered[c] = q.delivered;
    }
    first_failure(rep.failure, check_conservation(t));
  } else {
    std::vector<sim::Word> values(n);
    for (NodeId v = 0; v < n; ++v) {
      values[v] = node_result(w.expect, unwrap(sync->process(v), traced));
    }
    first_failure(rep.failure, check_values(w.expect, n, values));
  }
  first_failure(rep.failure, check_pinned(w, seed, rep.digest, rep.metrics));
  rep.result_s = seconds_since(t0);

  if (traced) {
    log->close(rep_span);
    std::vector<double> round_us;
    LayerTotals t = sum_spans(*log, &round_us);
    t.counts = counts;
    t.edges = g->num_edges();
    t.topology_bytes = g->topology_bytes();
    rep.layers = layer_metrics(t, round_us, n,
                               static_cast<double>(rep.metrics.rounds),
                               static_cast<double>(rep.metrics.p2p_messages),
                               1);
  }
  return rep;
}

/// `count` CPUs of `allowed` for the ranks of a sharded repetition: those
/// with the most idle time over the next 50 ms, stolen time counting as
/// busy, and this process's own CPU first among equals; CPUs repeat when
/// `allowed` has fewer than `count`.  On a shared host one vCPU can lose a
/// large share of its time to other guests for tens of seconds, and a rank
/// placed on it sets the lockstep pace of every rank.
std::vector<int> idlest_cpus(const cpu_set_t& allowed, unsigned count) {
  const auto idle_ticks = [] {
    std::vector<long long> idle(CPU_SETSIZE, -1);
    std::FILE* f = std::fopen("/proc/stat", "r");
    if (f == nullptr) return idle;
    char line[512];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      int cpu = 0;
      long long v[8] = {};
      if (std::sscanf(line, "cpu%d %lld %lld %lld %lld %lld %lld %lld %lld",
                      &cpu, &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                      &v[7]) == 9 &&
          cpu >= 0 && cpu < CPU_SETSIZE) {
        idle[cpu] = v[3] + v[4];  // idle + iowait
      }
    }
    std::fclose(f);
    return idle;
  };
  const std::vector<long long> before = idle_ticks();
  ::usleep(50000);
  const std::vector<long long> after = idle_ticks();
  const int here = ::sched_getcpu();
  std::vector<std::pair<long long, int>> order;  // (-idle ticks, cpu)
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &allowed)) continue;
    const long long idle =
        before[c] < 0 || after[c] < 0 ? 0 : after[c] - before[c];
    order.push_back({-idle, c});
  }
  MMN_REQUIRE(!order.empty(), "no CPU to run the ranks on");
  std::stable_sort(order.begin(), order.end(),
                   [here](const auto& a, const auto& b) {
                     if (a.first != b.first) return a.first < b.first;
                     return a.second == here && b.second != here;
                   });
  std::vector<int> cpus;
  for (unsigned r = 0; r < count; ++r) {
    cpus.push_back(order[r % order.size()].second);
  }
  return cpus;
}

/// The ranks' CPUs: chosen afresh for every timed sharded repetition and
/// kept for the set-up-only ones that follow it.
std::vector<int>& placement() {
  static std::vector<int> cpus;
  return cpus;
}

/// What each rank reports to rank 0 after a sharded repetition.
struct RankReport {
  double setup_end = 0;  ///< steady-clock seconds: shared across processes
  double step_s = 0;
  std::uint64_t digest = 0;  ///< chain accumulator (final on the last rank)
  std::uint64_t p2p = 0;
  std::uint64_t completed = 0;
  char failure[128] = {};  ///< first failed check of the window, or empty
  LayerTotals layers;
};

void swap_bytes(shard_comm::Transport& t, unsigned peer, const void* out,
                std::size_t out_bytes, void* in, std::size_t in_bytes) {
  std::vector<std::uint8_t> scratch;
  t.exchange(peer, static_cast<const std::uint8_t*>(out), out_bytes, scratch);
  MMN_REQUIRE(scratch.size() == in_bytes, "rank report: unexpected size");
  if (in_bytes > 0) std::memcpy(in, scratch.data(), in_bytes);
}

/// The sharded repetition: the steps of scenario::run_sharded's rank body,
/// with set-up and stepping timed apart and each rank checking its window.
Rep run_sharded(const Workload& w, const scenario::Scenario& s,
                std::uint64_t seed, SpanLog* log, std::uint32_t run,
                const std::string& rank_csv_prefix, bool setup_only) {
  const bool traced = log != nullptr;
  const NodeId n = mmn::topology_round_n(s.topology, w.n);
  std::vector<RankReport> reports(w.ranks);
  Metrics rank0_metrics;
  std::vector<double> round_us;
  Rep rep;
  std::fflush(nullptr);  // children share stdio; leave them nothing to flush
  // Each rank runs on a CPU of its own, so the ranks step in parallel, as
  // run_sharded's users run them, and the scheduler cannot move a rank
  // between rounds.
  cpu_set_t all;
  MMN_REQUIRE(::sched_getaffinity(0, sizeof(all), &all) == 0,
              "cannot read this process's CPU set");
  if (!setup_only || placement().size() < w.ranks) {
    placement() = idlest_cpus(all, w.ranks);
  }
  const std::vector<int> rank_cpu = placement();
  const auto pin = [&](unsigned rank) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(rank_cpu[rank], &one);
    MMN_REQUIRE(::sched_setaffinity(0, sizeof(one), &one) == 0,
                "cannot pin a rank process to its CPU");
  };
  const auto t0 = Clock::now();
  const std::int32_t rep_span = traced ? log->open(SpanName::kRep) : -1;

  shard_comm::run_ranks(w.ranks, [&](shard_comm::Transport& t) {
    const unsigned rank = t.rank();
    pin(rank);
    const auto [lo, hi] = sim::Scheduler::shard_range(n, rank, w.ranks);
    SpanLog child_log;
    child_log.set_run(run);
    SpanLog* my_log = !traced ? nullptr : rank == 0 ? log : &child_log;
    LayerCounts counts;
    RankReport me;

    std::optional<Graph> g;
    {
      Scoped span(my_log, SpanName::kGraphBuild);
      g.emplace(mmn::build_topology_window(
          mmn::TopologySpec{s.topology, n, seed}, mmn::GraphWindow{lo, hi}));
    }
    std::optional<TimedTransport> timed_t;
    if (traced) timed_t.emplace(t, *my_log, counts);
    shard_comm::Transport& eng_t =
        traced ? static_cast<shard_comm::Transport&>(*timed_t) : t;
    sim::ProcessFactory f = s.make_factory(*g);
    if (traced) f = timed_factory(std::move(f), *my_log, counts);
    std::optional<sim::RankEngine> eng;
    {
      Scoped span(my_log, SpanName::kSimConstruct);
      eng.emplace(*g, sim::RankSpec{rank, w.ranks, lo, hi}, f, seed, eng_t,
                  make_discipline(s.discipline, seed, my_log, &counts));
    }
    me.setup_end = now_s();

    if (!setup_only) {
      const auto ts = Clock::now();
      me.completed = step_to_end(*eng, s.max_rounds, my_log) ? 1 : 0;
      me.step_s = seconds_since(ts);
      const std::uint64_t bytes_out = t.bytes_out();
      me.p2p = eng->metrics().p2p_messages;

      // Digest chain, rank-major, as run_sharded folds it.
      {
        Scoped span(my_log, SpanName::kDigest);
        std::uint64_t h_prev = scenario::kDigestSeed, dummy = 0;
        if (rank > 0) {
          swap_bytes(t, rank - 1, &dummy, sizeof(dummy), &h_prev,
                     sizeof(h_prev));
        }
        me.digest = s.digest(scenario::NodeResults{
            hi - lo,
            [&](NodeId v) -> const sim::Process& {
              return unwrap(eng->process(v), traced);
            },
            nullptr, lo, h_prev});
        if (rank + 1 < w.ranks) {
          swap_bytes(t, rank + 1, &me.digest, sizeof(me.digest), &dummy,
                     sizeof(dummy));
        }
      }
      std::vector<sim::Word> values(hi - lo);
      for (NodeId v = lo; v < hi; ++v) {
        values[v - lo] = node_result(w.expect, unwrap(eng->process(v), traced));
      }
      const std::string miss = check_values(w.expect, n, values, lo);
      std::strncpy(me.failure, miss.c_str(), sizeof(me.failure) - 1);
      if (traced) {
        me.layers = sum_spans(*my_log, rank == 0 ? &round_us : nullptr);
        me.layers.counts = counts;
        me.layers.edges = g->num_edges();
        me.layers.topology_bytes = g->topology_bytes();
        me.layers.bytes_out = bytes_out;
        me.layers.xshard = eng->xshard_msgs();
        me.layers.boundary = eng->boundary_edges();
      }
      if (rank == 0) rank0_metrics = eng->metrics();
    }

    if (rank != 0) {
      swap_bytes(t, 0, &me, sizeof(me), nullptr, 0);
      if (traced && !rank_csv_prefix.empty()) {
        child_log.write_csv(rank_csv_prefix + std::to_string(rank) +
                            ".csv");
      }
      return;
    }
    reports[0] = me;
    for (unsigned r = 1; r < w.ranks; ++r) {
      swap_bytes(t, r, nullptr, 0, &reports[r], sizeof(RankReport));
    }
  });
  MMN_REQUIRE(::sched_setaffinity(0, sizeof(all), &all) == 0,
              "cannot restore this process's CPU set");

  double setup_end = 0;
  for (const RankReport& r : reports) {
    setup_end = std::max(setup_end, r.setup_end);
  }
  rep.setup_s = setup_end - std::chrono::duration<double>(
                                t0.time_since_epoch()).count();
  if (setup_only) {
    if (traced) log->close(rep_span);
    return rep;
  }

  rep.metrics = rank0_metrics;
  rep.metrics.p2p_messages = 0;
  bool completed = true;
  for (const RankReport& r : reports) {
    rep.step_s = std::max(rep.step_s, r.step_s);
    rep.metrics.p2p_messages += r.p2p;
    completed = completed && r.completed != 0;
    if (r.failure[0] != '\0') first_failure(rep.failure, r.failure);
  }
  rep.digest = reports.back().digest;
  rep.node_rounds = static_cast<std::uint64_t>(n) * rep.metrics.rounds;
  if (!completed) first_failure(rep.failure, "round cap reached");
  first_failure(rep.failure, check_pinned(w, seed, rep.digest, rep.metrics));
  rep.result_s = seconds_since(t0);

  if (traced) {
    log->close(rep_span);
    LayerTotals total;
    for (const RankReport& r : reports) total.merge(r.layers);
    total.boundary /= 2;  // each cross-shard edge is seen by both windows
    rep.layers = layer_metrics(total, round_us, n,
                               static_cast<double>(rep.metrics.rounds),
                               static_cast<double>(rep.metrics.p2p_messages),
                               w.ranks);
  }
  return rep;
}

}  // namespace

Rep run_rep(const Workload& w, std::uint64_t seed, SpanLog* log,
            std::uint32_t run, const std::string& rank_csv_prefix) {
  const scenario::Scenario& s = scenario_of(w);
  if (log != nullptr) log->set_run(run);
  if (w.mode == Mode::kRanks) {
    return run_sharded(w, s, seed, log, run, rank_csv_prefix, false);
  }
  return run_serial(w, s, seed, log);
}

double setup_only(const Workload& w, std::uint64_t seed) {
  const scenario::Scenario& s = scenario_of(w);
  if (w.mode == Mode::kRanks) {
    return run_sharded(w, s, seed, nullptr, 0, {}, true).setup_s;
  }
  const auto t0 = Clock::now();
  const Graph g = scenario::make_scenario_graph(s, w.n, seed);
  if (w.mode == Mode::kSync) {
    sim::Engine eng(g, s.make_factory(g), seed, nullptr,
                    make_discipline(s.discipline, seed, nullptr, nullptr));
    return seconds_since(t0);
  }
  sim::AsyncEngine eng(g, s.make_async_load_factory(g, s.default_load), seed,
                       s.async_max_delay_slots, nullptr,
                       make_discipline(s.discipline, seed, nullptr, nullptr));
  return seconds_since(t0);
}

}  // namespace perfbench
