// perfbench: runs one benchmark workload repeatedly for a time budget and
// prints one JSON object with every sample (perfbench/run.py aggregates).
// Repetition j runs at scenario seed rep_seed(seed, j).
//
//   perfbench --workload ring --seed 7 --seconds 20 --trace 0
//             [--trace-dir DIR]
//
// --trace 0: timed repetitions, each followed by set-up-only repetitions;
//            reports the timed repetitions' result and stepping samples,
//            set-up samples (best_of_groups), and the peak RSS of this
//            process and its reaped rank children.
// --trace 1: untraced and traced repetitions alternate; traced ones report
//            per-layer metrics (workload.hpp) and must reproduce the
//            untraced digest and Metrics.  Spans are appended to
//            DIR/<workload>-seed<seed>.csv (rank r > 0: ...-rank<r>.csv).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "support/rng.hpp"
#include "workload.hpp"

namespace {

using perfbench::Rep;
using perfbench::Workload;
using Clock = std::chrono::steady_clock;

/// Share of the budget spent on set-up-only repetitions (trace 0).
constexpr double kSetupShare = 0.25;
constexpr std::uint32_t kMinReps = 3;
/// Set-up samples are the fastest of groups of kSetupGroup set-ups.
constexpr std::size_t kSetupGroup = 8;
constexpr std::size_t kMinSetups = 3 * kSetupGroup;
constexpr std::size_t kMaxSetups = 2000;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-dir DIR]\n",
               why);
  std::exit(2);
}

/// Scenario seed of repetition j: the run's seed itself first (so seed 7
/// meets the pinned values), then seeds hashed from it.  The ring's round
/// count swings by tens of percent between nearby seeds; a median over
/// repetitions of independent seeds keeps the run's figures from following
/// one seed's luck.
std::uint64_t rep_seed(std::uint64_t seed, std::uint32_t j) {
  if (j == 0) return seed;
  std::uint64_t state = seed ^ (0x9E3779B97F4A7C15ULL * j);
  return mmn::splitmix64(state);
}

/// Deals the run's set-ups, in run order, round-robin into groups of
/// kSetupGroup and returns each group's fastest.  On a shared host a set-up
/// of a few milliseconds runs in spells, seconds long, in which other
/// tenants make it up to 60% slower; a group drawn across the whole run
/// nearly always holds a set-up from outside such a spell, so the median
/// over groups (about the 8th percentile of the run's set-ups) is steady
/// from run to run where the median of single set-ups follows the spells.
std::vector<double> best_of_groups(const std::vector<double>& setups) {
  const std::size_t groups =
      std::max<std::size_t>(1, setups.size() / kSetupGroup);
  if (setups.empty()) return {};
  std::vector<double> best(groups, std::numeric_limits<double>::infinity());
  for (std::size_t i = 0; i < setups.size(); ++i) {
    best[i % groups] = std::min(best[i % groups], setups[i]);
  }
  return best;
}

/// Keeps memory the simulator frees inside this process, so that every
/// repetition after the first reuses pages that are already mapped.  By
/// default glibc returns large blocks to the kernel on free, and the next
/// repetition faults every page in again; on a virtual machine whose host
/// reclaims freed guest memory, each of those faults also costs the host
/// work that varies with its memory load.  On cube at 65536 nodes (330 MiB
/// a repetition) system time was 12% of the run's CPU time, and 2% with
/// the memory kept.  Peak RSS then includes the heap's free blocks.
void retain_freed_memory() {
#if defined(__GLIBC__)
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
#endif
}

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void print_array(const char* key, const std::vector<double>& v) {
  std::printf("\"%s\":[", key);
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::printf("%s%.9g", i ? "," : "", v[i]);
  }
  std::printf("]");
}

void print_string(const std::string& s) {
  std::putchar('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c >= 0x20 ? c : ' ');
  }
  std::putchar('"');
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, trace_dir = ".";
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") workload = value;
    else if (key == "--seed") seed = std::strtoull(value, nullptr, 10);
    else if (key == "--seconds") seconds = std::strtod(value, nullptr);
    else if (key == "--trace") trace = std::atoi(value);
    else if (key == "--trace-dir") trace_dir = value;
    else usage("unknown flag");
  }
  const Workload* w = perfbench::find_workload(workload);
  if (w == nullptr) usage("unknown workload");
  if (seconds <= 0 || (trace != 0 && trace != 1)) usage("bad arguments");

  retain_freed_memory();
  const auto start = Clock::now();
  perfbench::Tally tally;
  std::vector<double> result_s, setup_s, rate, traced_result_s;
  std::map<std::string, std::vector<double>> layers;
  std::vector<std::string> layer_order;
  std::optional<Rep> first;  // repetition 0, which runs at `seed` itself

  // `untraced`: the untraced repetition a traced one must reproduce.
  const auto record = [&](Rep rep, const Rep* untraced) {
    if (untraced != nullptr && rep.failure.empty() &&
        (rep.digest != untraced->digest ||
         !(rep.metrics == untraced->metrics))) {
      rep.failure = "traced digest/Metrics differ from the untraced run";
    }
    tally.add(rep);
    if (!rep.failure.empty()) return;
    if (untraced != nullptr) {
      traced_result_s.push_back(rep.result_s);
      for (const auto& [name, value] : rep.layers) {
        if (!layers.count(name)) layer_order.push_back(name);
        layers[name].push_back(value);
      }
      return;
    }
    result_s.push_back(rep.result_s);
    rate.push_back(static_cast<double>(rep.node_rounds) / rep.step_s);
  };

  if (trace == 0) {
    // Set-up-only repetitions follow each timed one, so that the set-up
    // median, like the others, spans the whole run.
    double setup_time = 0;
    std::vector<double> setups;
    const auto set_up = [&](std::uint64_t s) {
      const auto t = Clock::now();
      setups.push_back(perfbench::setup_only(*w, s));
      setup_time += since(t);
    };
    double last = 0;
    std::uint64_t s = seed;
    for (std::uint32_t j = 0; j < kMinReps || since(start) + last <= seconds;
         ++j) {
      const auto t = Clock::now();
      s = rep_seed(seed, j);
      Rep rep = perfbench::run_rep(*w, s);
      if (j == 0) first = rep;
      record(std::move(rep), nullptr);
      while (setups.size() < kMaxSetups &&
             setup_time < kSetupShare * since(start)) {
        set_up(s);
      }
      last = since(t);
    }
    while (setups.size() < kMinSetups) set_up(s);
    setup_s = best_of_groups(setups);
  } else {
    const std::string base = trace_dir + "/" + std::string(w->name) +
                             "-seed" + std::to_string(seed);
    for (unsigned r = 0; r < w->ranks; ++r) {
      const std::string path =
          r == 0 ? base + ".csv" : base + "-rank" + std::to_string(r) + ".csv";
      if (std::FILE* f = std::fopen(path.c_str(), "w")) std::fclose(f);
    }
    perfbench::SpanLog log;
    double last = 0;
    for (std::uint32_t j = 0; j == 0 || since(start) + last <= seconds; ++j) {
      const auto t = Clock::now();
      const std::uint64_t s = rep_seed(seed, j);
      Rep plain = perfbench::run_rep(*w, s);
      Rep traced = perfbench::run_rep(*w, s, &log, j, base + "-rank");
      if (j == 0) first = plain;
      record(std::move(traced), &plain);
      record(std::move(plain), nullptr);
      log.write_csv(base + ".csv");
      log.clear();
      last = since(t);
    }
  }
  const double rss = perfbench::peak_rss_mb();

  // The sharded run must reproduce the serial run of the same scenario.
  if (w->mode == perfbench::Mode::kRanks && first) {
    for (const Workload& serial : perfbench::workloads()) {
      if (serial.mode != perfbench::Mode::kSync ||
          serial.scenario != w->scenario) {
        continue;
      }
      const Rep ref = perfbench::run_rep(serial, seed);
      if (ref.digest != first->digest || !(ref.metrics == first->metrics)) {
        tally.failed = tally.attempted;
        tally.failures.push_back("sharded digest/Metrics differ from the "
                                 "serial run of " + std::string(serial.name));
      }
      break;
    }
  }

  std::printf("{\"workload\":");
  print_string(std::string(w->name));
  std::printf(",\"seed\":%llu,\"attempted\":%llu,\"failed\":%llu,",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  std::printf("\"failures\":[");
  for (std::size_t i = 0; i < tally.failures.size(); ++i) {
    if (i) std::printf(",");
    print_string(tally.failures[i]);
  }
  std::printf("],");
  print_array("result_s", result_s);
  std::printf(",");
  print_array("setup_s", setup_s);
  std::printf(",");
  print_array("node_rounds_per_s", rate);
  std::printf(",\"peak_rss_mb\":%.9g,", rss);
  print_array("traced_result_s", traced_result_s);
  std::printf(",\"layers\":{");
  for (std::size_t i = 0; i < layer_order.size(); ++i) {
    if (i) std::printf(",");
    print_array(layer_order[i].c_str(), layers[layer_order[i]]);
  }
  std::printf("}}\n");
  return 0;
}
