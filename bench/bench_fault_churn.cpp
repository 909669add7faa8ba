// E14 — Fault injection bench (google-benchmark): recovery latency of the
// epoch-rebuild flow and goodput retention of the open-loop reservation MAC
// under churn (sim/fault.hpp, graph/epoch.hpp).
//
// Two row families:
//
//   fault/recovery/<proto>/<n>   — the registry's two-phase recovery
//     scenarios (fault/partition/det/random, fault/mst/random): the
//     protocol runs into k connectivity-safe link kills, the epoch overlay
//     compacts the surviving topology, and the protocol re-converges from
//     scratch on it.  Counters:
//       recovery_slots   — slots from the first fault until re-convergence
//                          (phase-A remainder + phase-B rounds).  A pure
//                          model output, gated against GROWTH by
//                          tools/bench_gate.py even when a machine-shape
//                          mismatch leaves the wall-clock gate advisory.
//       links_killed     — plan size, informational.
//       slots/s          — wall-clock simulation rate (armed machines only).
//
//   fault/churn/resv/ring/64/k<K> — the open-loop reservation ring at
//     offered 0.6 under rate-driven link churn (0.004*K per slot) plus
//     station churn (0.001*K, 40 slots down).  Counters:
//       goodput_retention — faulted deliveries / clean deliveries of the
//                           identical configuration.  Deterministic model
//                           output; the gate fails on ANY drop past
//                           tolerance, armed or not.
//       fault_drops / orphaned_pkts — degradation tallies, informational.
//       p99_delay_slots  — voice-class p99 under churn, gated upward.
//       slots/s          — wall-clock rate.
//
// As in bench_load_sweep, every row re-runs its configuration once on a
// 4-thread ParallelScheduler after timing and aborts via SkipWithError on
// any digest mismatch, so the published fault curves are certified
// scheduler-invariant.  `--json` maps to google-benchmark's JSON writer
// (BENCH_fault_churn.json).
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "scenario/registry.hpp"

namespace mmn {
namespace {

constexpr std::uint64_t kSeed = 7;
constexpr unsigned kCheckThreads = 4;

void BM_Recovery(benchmark::State& state, const char* scenario_name,
                 NodeId n) {
  scenario::register_builtin();
  const scenario::Scenario* s =
      scenario::Registry::instance().find(scenario_name);
  if (s == nullptr) {
    state.SkipWithError("scenario not registered");
    return;
  }
  scenario::RunResult result;
  for (auto _ : state) {
    result = scenario::run(*s, n, s->default_seed);
    benchmark::DoNotOptimize(result.digest);
  }
  const scenario::RunResult parallel =
      scenario::run(*s, n, s->default_seed, {.threads = kCheckThreads});
  if (parallel.digest != result.digest ||
      parallel.recovery_slots != result.recovery_slots) {
    state.SkipWithError("serial and 4-thread recovery runs diverged");
    return;
  }
  state.counters["recovery_slots"] =
      benchmark::Counter(static_cast<double>(result.recovery_slots));
  state.counters["links_killed"] =
      benchmark::Counter(static_cast<double>(result.faults.link_downs));
  state.counters["slots/s"] = benchmark::Counter(
      static_cast<double>(result.metrics.rounds) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  state.SetLabel(result.completed ? "reconverged" : "capped");
}

void BM_Churn(benchmark::State& state, std::uint32_t k) {
  scenario::register_builtin();
  const scenario::Scenario* s =
      scenario::Registry::instance().find("fault/load/churn/ring");
  if (s == nullptr) {
    state.SkipWithError("scenario not registered");
    return;
  }
  const NodeId n = 64;
  // The retention denominator: the identical configuration, fault-free.
  scenario::Scenario fault_free = *s;
  fault_free.make_fault_plan = nullptr;
  const scenario::RunResult clean = scenario::run(fault_free, n, kSeed);
  scenario::RunResult report;
  for (auto _ : state) {
    report = scenario::run(*s, n, kSeed, {.faults = k});
    benchmark::DoNotOptimize(report.digest);
  }
  const scenario::RunResult parallel =
      scenario::run(*s, n, kSeed, {.threads = kCheckThreads, .faults = k});
  if (parallel.digest != report.digest ||
      parallel.metrics.rounds != report.metrics.rounds) {
    state.SkipWithError("serial and 4-thread churn runs diverged");
    return;
  }
  std::uint64_t clean_delivered = 0;
  std::uint64_t faulted_delivered = 0;
  for (std::size_t c = 0; c < sim::kNumQosClasses; ++c) {
    clean_delivered += clean.qos[c].delivered;
    faulted_delivered += report.qos[c].delivered;
  }
  state.counters["goodput_retention"] = benchmark::Counter(
      clean_delivered == 0 ? 1.0
                           : static_cast<double>(faulted_delivered) /
                                 static_cast<double>(clean_delivered));
  state.counters["fault_drops"] = benchmark::Counter(
      static_cast<double>(report.faults.drops));
  state.counters["orphaned_pkts"] = benchmark::Counter(
      static_cast<double>(report.faults.orphaned_pkts));
  state.counters["p99_delay_slots"] = benchmark::Counter(static_cast<double>(
      report.qos[static_cast<std::size_t>(sim::QosClass::kVoice)].p99));
  state.counters["slots/s"] = benchmark::Counter(
      static_cast<double>(report.metrics.rounds) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  state.SetLabel(report.completed ? "drained" : "capped");
}

void register_rows() {
  struct RecoveryRow {
    const char* name;
    const char* scenario;
    NodeId n;
  };
  static constexpr RecoveryRow kRecovery[] = {
      {"fault/recovery/partition/64", "fault/partition/det/random", 64},
      {"fault/recovery/partition/128", "fault/partition/det/random", 128},
      {"fault/recovery/mst/64", "fault/mst/random", 64},
  };
  for (const RecoveryRow& row : kRecovery) {
    benchmark::RegisterBenchmark(row.name, BM_Recovery, row.scenario, row.n)
        ->Unit(benchmark::kMillisecond);
  }
  for (const std::uint32_t k : {1u, 4u}) {
    const std::string name =
        "fault/churn/resv/ring/64/k" + std::to_string(k);
    benchmark::RegisterBenchmark(name.c_str(), BM_Churn, k)
        ->Unit(benchmark::kMillisecond);
  }
}

}  // namespace
}  // namespace mmn

int main(int argc, char** argv) {
  mmn::register_rows();
  // Map the repo-wide --json flag onto google-benchmark's JSON writer.
  std::vector<char*> args;
  std::string out_flag = "--benchmark_out=BENCH_fault_churn.json";
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
