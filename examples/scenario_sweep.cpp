// Scenario sweep: drive every registered workload from one table.
//
// The scenario registry (src/scenario/registry.hpp) names each workload —
// topology family x protocol x channel discipline x default n/seed sweep —
// once; this example validates the whole table, walks it (by default at each
// scenario's smallest sweep size), optionally under the parallel scheduler,
// and prints the topology family, the realized size, the model metrics and
// the per-node result digest.  Every entry is size-parameterized through
// TopologySpec, so the same driver sweeps any size:
//
//   $ ./example_scenario_sweep                 # serial, default sizes
//   $ ./example_scenario_sweep 8               # 8-thread parallel scheduler
//   $ ./example_scenario_sweep --n=65536 --scenario=global/min/rand/ring
//   $ ./example_scenario_sweep 4 --n=16384 --scenario=global/sum/bcast/iclique
//   $ ./example_scenario_sweep --scenario=load/poisson/resv/ring --load=0.9
//   $ ./example_scenario_sweep --ranks=4 --scenario=global/min/rand/ring
//   $ ./example_scenario_sweep 2 --ranks=2     # 2 threads inside each rank
//
// Every row is one scenario::run call; the flags fill its RunConfig.
// --ranks=K runs the synchronous rows sharded over K OS processes
// (sim/rank.hpp): each rank builds only its node window and the rows —
// digest included — are bit-identical to the serial table's, which is
// exactly what the CI serial-vs-sharded diff pins.  Rank mode is
// synchronous-only, so the @async section is skipped; the two-phase
// fault-recovery scenarios are skipped in a whole-table sweep, and naming
// one with --scenario= exits non-zero.  It composes with a thread count
// and with --n/--load/--faults.
//
// --n is STRICT: a size the topology family does not admit (a non-power-of-
// two hypercube, a non-square grid) exits non-zero instead of silently
// clamping — sweep automation must never report a different n than asked.
// --load is equally strict: it only applies to load-capable scenarios (the
// open-loop load/ family), and selecting it with anything else exits
// non-zero instead of silently running the scenario at no load.  --faults
// follows the same rule for fault-capable scenarios (the fault/ family):
// it scales the fault intensity k, and naming it with a scenario that has
// no make_fault_plan exits non-zero.  Fault-capable scenarios run at their
// default_faults even without the flag — the fault/ rows are always
// faulted rows.
//
// CI diffs the serial and parallel tables row by row, so a malformed
// registry entry must fail the sweep loudly instead of being skipped:
// duplicate names, missing digests, or empty sweeps exit non-zero before
// any run starts.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <type_traits>

#include "graph/generators.hpp"
#include "scenario/registry.hpp"
#include "sim/channel_discipline.hpp"

namespace {

/// Rejects registry entries the sweep (and the CI diff over its rows)
/// cannot meaningfully drive, with a clean exit-1 instead of a skipped row.
/// Registry::add already aborts the process on duplicate names, missing
/// factories, and empty sweeps, so the load-bearing check here is the
/// digest: a digest-less scenario would print 0 and make the CI
/// serial/parallel diff blind to its results.  The duplicate-name re-check
/// stays as cheap defense in depth for a future registration path that
/// bypasses add().
bool validate_registry(const std::deque<mmn::scenario::Scenario>& scenarios) {
  bool ok = true;
  std::set<std::string> names;
  for (const auto& s : scenarios) {
    if (!names.insert(s.name).second) {
      std::fprintf(stderr, "malformed registry: duplicate scenario name %s\n",
                   s.name.c_str());
      ok = false;
    }
    if (!s.digest) {
      std::fprintf(stderr,
                   "malformed registry: %s has no digest — the sweep's "
                   "serial/parallel diff would be blind to its results\n",
                   s.name.c_str());
      ok = false;
    }
    if (s.sweep_n.empty()) {
      std::fprintf(stderr, "malformed registry: %s has an empty sweep\n",
                   s.name.c_str());
      ok = false;
    }
  }
  return ok;
}

/// Strict numeric argument: all of `text` must parse, unsigned, into
/// [lo, hi] — an out-of-range value fails instead of truncating into a
/// different value than the caller asked for.
template <typename T>
bool parse_arg(const char* text, T lo, T hi, T& out) {
  char* end = nullptr;
  errno = 0;
  const auto v = [&] {
    if constexpr (std::is_floating_point_v<T>) {
      return std::strtod(text, &end);
    } else {
      return std::strtoull(text, &end, 10);
    }
  }();
  if (end == text || *end != '\0' || errno == ERANGE || text[0] == '-' ||
      !(v >= lo && v <= hi)) {
    return false;
  }
  out = static_cast<T>(v);
  return true;
}

void print_row(const mmn::scenario::Scenario& s, const char* suffix,
               const mmn::scenario::RunResult& r) {
  std::printf("%-30s %-9s %-11s %8u %10llu %12llu %18llx",
              (s.name + suffix).c_str(), mmn::topology_name(s.topology),
              mmn::sim::discipline_name(s.discipline), r.realized_n,
              (unsigned long long)r.metrics.rounds,
              (unsigned long long)r.metrics.p2p_messages,
              (unsigned long long)r.digest);
  // Faulted rows append their degradation tail; the columns are as
  // deterministic as the digest, so the CI serial/parallel diff covers them.
  if (!(r.faults == mmn::sim::FaultStats{})) {
    std::printf("  drops=%llu orphans=%llu rec=%llu",
                (unsigned long long)r.faults.drops,
                (unsigned long long)r.faults.orphaned_pkts,
                (unsigned long long)r.recovery_slots);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mmn;
  scenario::RunConfig config;  // threads, ranks, load, faults from the flags
  NodeId requested_n = 0;      // 0 = each scenario's smallest sweep size
  std::string only;            // empty = every scenario
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const auto flag = [arg](const char* name) {
      return std::strncmp(arg, name, std::strlen(name)) == 0
                 ? arg + std::strlen(name)
                 : nullptr;
    };
    const char* v = nullptr;
    bool ok = true;
    if ((v = flag("--n=")) != nullptr) {
      ok = parse_arg<NodeId>(v, 1, std::numeric_limits<NodeId>::max(),
                             requested_n);
    } else if ((v = flag("--load=")) != nullptr) {
      ok = parse_arg(v, std::numeric_limits<double>::min(), 64.0,
                     config.load);
    } else if ((v = flag("--faults=")) != nullptr) {
      ok = parse_arg<std::uint32_t>(v, 1, 4096, config.faults);
    } else if ((v = flag("--ranks=")) != nullptr) {
      ok = parse_arg(v, 1u, 64u, config.ranks);
    } else if ((v = flag("--scenario=")) != nullptr) {
      only = v;
    } else if (!parse_arg(arg, 1u, 256u, config.threads)) {
      std::fprintf(stderr,
                   "usage: %s [threads: 1..256] [--n=N] [--load=L] "
                   "[--faults=K] [--ranks=K] [--scenario=NAME]\n",
                   argv[0]);
      return 2;
    }
    if (!ok) {
      std::fprintf(stderr, "bad %.*s value: %s\n",
                   static_cast<int>(v - arg - 1), arg, v);
      return 2;
    }
  }

  scenario::register_builtin();
  const auto& scenarios = scenario::Registry::instance().all();
  if (!validate_registry(scenarios)) return 1;
  if (!only.empty() && scenario::Registry::instance().find(only) == nullptr) {
    std::fprintf(stderr, "no such scenario: %s\n", only.c_str());
    return 1;
  }
  // Strict up front: a flag a selected scenario cannot take exits non-zero
  // instead of silently running without it — an --n the topology family
  // does not admit (no clamping), --load on a closed-loop protocol,
  // --faults on a scenario without a fault plan, --ranks on a named
  // recovery scenario.
  bool ok = true;
  for (const auto& s : scenarios) {
    if (!only.empty() && s.name != only) continue;
    if (requested_n != 0 && !topology_valid_n(s.topology, requested_n)) {
      std::fprintf(stderr,
                   "%s: topology '%s' does not admit n=%u (nearest "
                   "supported: %u)\n",
                   s.name.c_str(), topology_name(s.topology), requested_n,
                   topology_round_n(s.topology, requested_n));
      ok = false;
    }
    if (config.load > 0.0 && s.open_loop() == nullptr) {
      std::fprintf(stderr, "%s is not load-capable; --load needs the "
                   "open-loop load/ scenarios\n", s.name.c_str());
      ok = false;
    }
    if (config.faults > 0 && !s.make_fault_plan) {
      std::fprintf(stderr, "%s is not fault-capable; --faults needs the "
                   "fault/ scenarios\n", s.name.c_str());
      ok = false;
    }
    if (config.ranks > 1 && !only.empty() && s.recovery()) {
      std::fprintf(stderr, "%s re-partitions mid-run (two-phase recovery); "
                   "it does not run under --ranks\n", s.name.c_str());
      ok = false;
    }
  }
  if (!ok) return 1;

  std::size_t selected = 0;
  for (const auto& s : scenarios) selected += only.empty() || s.name == only;
  const char* scheduler = config.threads > 1 ? "parallel" : "serial";
  if (config.ranks > 1) {
    std::printf("%zu scenario(s) selected of %zu registered; %u rank "
                "processes, scheduler: %s\n\n",
                selected, scenarios.size(), config.ranks, scheduler);
  } else {
    std::printf("%zu scenario(s) selected of %zu registered; scheduler: "
                "%s\n\n",
                selected, scenarios.size(), scheduler);
  }
  std::printf("%-30s %-9s %-11s %8s %10s %12s %18s\n", "scenario", "topology",
              "discipline", "n", "rounds", "msgs", "digest");
  for (const auto& s : scenarios) {
    if (!only.empty() && s.name != only) continue;
    if (config.ranks > 1 && s.recovery()) {
      // The two-phase epoch rebuild re-runs on a compacted graph the rank
      // windows were not cut for; recovery rows stay single-process.
      std::fprintf(stderr, "%s: fault-recovery scenarios run in one process "
                           "only; skipped under --ranks\n", s.name.c_str());
      continue;
    }
    const NodeId n = requested_n != 0 ? requested_n : s.sweep_n.front();
    print_row(s, "", scenario::run(s, n, s.default_seed, config));
  }
  // The asynchronous engine runs channel-free workloads (through the
  // busy-tone synchronizer) and the open-loop load scenarios (natively, no
  // synchronizer); rounds are channel slots there.  Rank mode is
  // synchronous-only, so the section is skipped under --ranks.
  scenario::RunConfig async = config;
  async.engine = scenario::EngineKind::kAsync;
  for (const auto& s : scenarios) {
    if (config.ranks > 1) break;
    if (!s.channel_free && s.open_loop() == nullptr) continue;
    if (!only.empty() && s.name != only) continue;
    const NodeId n = requested_n != 0 ? requested_n : s.sweep_n.front();
    const scenario::RunResult r = scenario::run(s, n, s.default_seed, async);
    // Synchronizer-path protocols must terminate; an open-loop run capped
    // mid-livelock (free-for-all past saturation) is a valid, deterministic
    // row — the backlog is the result.
    if (!r.completed && s.open_loop() == nullptr) {
      std::fprintf(stderr, "%s@async hit the slot cap without terminating\n",
                   s.name.c_str());
      return 1;
    }
    print_row(s, "@async", r);
  }
  std::printf("\nRe-run with a thread count (e.g. `%s 8`): the rounds, msgs,\n"
              "and digest columns are identical by construction — both the\n"
              "synchronous rounds and the async slot phases run on the same\n"
              "deterministic scheduler, whichever channel discipline the\n"
              "scenario declares.\n",
              argv[0]);
  return 0;
}
