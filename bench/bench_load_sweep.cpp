// E13 — Open-loop load sweep (google-benchmark): throughput-vs-load and
// delay-vs-load curves for five channel disciplines over the same Poisson
// station population (core/openloop.hpp), ring-64.
//
// Row naming: load/<discipline>/ring/64/<load_pct> — e.g.
// load/resv/ring/64/90 is the reservation MAC at aggregate offered load
// 0.90 packets/slot.  Per row:
//
//   goodput_pps      — delivered packets per slot across all classes, the
//                      run's model throughput.  Deterministic per (seed,
//                      load, discipline); the perf gate (tools/
//                      bench_gate.py) fails on ANY drop, even unarmed.
//   p99_delay_slots  — p99 enqueue->delivery delay of the voice class
//                      (log2-bucket upper bound), the curve the reservation
//                      MAC exists to flatten.  Deterministic; gated upward.
//   voice_p99 / video_p99 / data_p99
//                    — the same percentile per class, informational.
//   voice_jitter / video_jitter / data_jitter
//                    — per-class inter-delivery variance (delay standard
//                      deviation, in slots; QosSummary::jitter).  The QoS
//                      figure the percentile tail cannot show: a tight p99
//                      can still wobble inside its bound.  Informational.
//   backlog_pkts     — packets still queued when the run cut off.  Nonzero
//                      here is the free-for-all livelock curve past
//                      saturation, not an error.
//   delivered_pkts   — absolute deliveries, to read goodput against.
//   slots/s          — wall-clock simulation rate (how fast the sweep runs,
//                      not a model quantity).
//
// Every timed iteration is a full serial run; after timing, the same
// configuration is re-run once on a 4-thread ParallelScheduler and the
// per-node digests are compared — a mismatch aborts the row with
// SkipWithError, so the published curves are certified scheduler-invariant.
// `--json` maps to google-benchmark's JSON writer (BENCH_load_sweep.json).
#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/openloop.hpp"
#include "scenario/registry.hpp"

namespace mmn {
namespace {

constexpr NodeId kNodes = 64;
constexpr std::uint64_t kSeed = 7;
constexpr std::uint64_t kHorizon = 2000;
constexpr unsigned kCheckThreads = 4;

void BM_LoadSweep(benchmark::State& state, sim::DisciplineKind discipline,
                  double offered) {
  const scenario::Scenario s = scenario::open_loop_scenario(
      "load/sweep", "bench_load_sweep point", TopoKind::kRing,
      OpenLoopConfig{.arrivals = sim::ArrivalKind::kPoisson,
                     .horizon = kHorizon},
      offered, discipline, {kNodes});
  scenario::RunResult report;
  for (auto _ : state) {
    report = scenario::run(s, kNodes, kSeed);
    benchmark::DoNotOptimize(report.digest);
  }

  // Scheduler-invariance certificate: one parallel replica must reproduce
  // the serial run bit for bit before the row is published.
  const scenario::RunResult parallel =
      scenario::run(s, kNodes, kSeed, {.threads = kCheckThreads});
  if (parallel.digest != report.digest ||
      parallel.metrics.rounds != report.metrics.rounds) {
    state.SkipWithError("serial and 4-thread runs diverged");
    return;
  }

  std::uint64_t delivered = 0;
  std::uint64_t backlog = 0;
  for (const sim::QosSummary& cls : report.qos) {
    delivered += cls.delivered;
    backlog += cls.backlog();
  }
  const auto slots = static_cast<double>(report.metrics.rounds);
  state.counters["goodput_pps"] =
      benchmark::Counter(static_cast<double>(delivered) / slots);
  state.counters["p99_delay_slots"] = benchmark::Counter(
      static_cast<double>(report.qos[static_cast<std::size_t>(sim::QosClass::kVoice)].p99));
  state.counters["voice_p99"] = benchmark::Counter(
      static_cast<double>(report.qos[static_cast<std::size_t>(sim::QosClass::kVoice)].p99));
  state.counters["video_p99"] = benchmark::Counter(
      static_cast<double>(report.qos[static_cast<std::size_t>(sim::QosClass::kVideo)].p99));
  state.counters["data_p99"] = benchmark::Counter(
      static_cast<double>(report.qos[static_cast<std::size_t>(sim::QosClass::kData)].p99));
  state.counters["voice_jitter"] = benchmark::Counter(
      report.qos[static_cast<std::size_t>(sim::QosClass::kVoice)].jitter());
  state.counters["video_jitter"] = benchmark::Counter(
      report.qos[static_cast<std::size_t>(sim::QosClass::kVideo)].jitter());
  state.counters["data_jitter"] = benchmark::Counter(
      report.qos[static_cast<std::size_t>(sim::QosClass::kData)].jitter());
  state.counters["backlog_pkts"] =
      benchmark::Counter(static_cast<double>(backlog));
  state.counters["delivered_pkts"] =
      benchmark::Counter(static_cast<double>(delivered));
  state.counters["slots/s"] = benchmark::Counter(
      static_cast<double>(report.metrics.rounds) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  // Row label: "drained" when the backlog cleared (small residues are the
  // unobserved-final-delivery boundary artifact, core/openloop.hpp),
  // "livelocked" when the run quiesced with a standing backlog (the
  // free-for-all story), "capped" when the slot budget ran out first.
  state.SetLabel(!report.completed        ? "capped"
                 : backlog > std::uint64_t{kNodes} ? "livelocked"
                                                   : "drained");
}

struct SweepPoint {
  const char* tag;
  sim::DisciplineKind discipline;
};

void register_rows() {
  // TDMA is stable at any offered load below 1 (its delay is the price:
  // ~n/2 slots of round-robin latency at light load); Capetanakis tree
  // splitting saturates near 0.5 packets/slot, so its 0.60/0.90 rows run
  // past capacity — they still drain inside the 8x budget window once
  // generation stops, with the delay tail (p99 columns) carrying the story.
  static constexpr SweepPoint kDisciplines[] = {
      {"ffa", sim::DisciplineKind::kFreeForAll},
      {"pb", sim::DisciplineKind::kPseudoBayesian},
      {"resv", sim::DisciplineKind::kReservation},
      {"tdma", sim::DisciplineKind::kTdma},
      {"cape", sim::DisciplineKind::kCapetanakis},
  };
  static constexpr double kLoads[] = {0.15, 0.30, 0.60, 0.90};
  for (const SweepPoint& point : kDisciplines) {
    for (const double load : kLoads) {
      const std::string name =
          "load/" + std::string(point.tag) + "/ring/" +
          std::to_string(kNodes) + "/" +
          std::to_string(static_cast<int>(load * 100.0 + 0.5));
      benchmark::RegisterBenchmark(name.c_str(), BM_LoadSweep,
                                   point.discipline, load)
          ->Unit(benchmark::kMillisecond);
    }
  }
}

}  // namespace
}  // namespace mmn

int main(int argc, char** argv) {
  mmn::register_rows();
  // Map the repo-wide --json flag onto google-benchmark's JSON writer.
  std::vector<char*> args;
  std::string out_flag = "--benchmark_out=BENCH_load_sweep.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      args.push_back(out_flag.data());
      args.push_back(fmt_flag.data());
    } else {
      args.push_back(argv[i]);
    }
  }
  int new_argc = static_cast<int>(args.size());
  benchmark::Initialize(&new_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(new_argc, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
