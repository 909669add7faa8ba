// The benchmark's workloads, one timed repetition of each, and the checks
// that decide whether a repetition's result is correct.
//
// A repetition is: build the graph, construct the engine (set-up), step to
// completion, digest, check — the same calls scenario::run makes, split so
// that set-up and stepping are timed apart.  The checks do not trust the
// engine: they compare every node's result with a value computed from the
// workload's inputs alone (see check_values / check_conservation), and at
// the pinned seed also the digest and Metrics recorded in the workload
// table.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/message.hpp"
#include "support/metrics.hpp"
#include "trace.hpp"

namespace perfbench {

enum class Mode : std::uint8_t {
  kSync,   ///< sim::Engine, serial
  kAsync,  ///< sim::AsyncEngine, serial (native open-loop stations)
  kRanks,  ///< sim::RankEngine, one process per rank
};

/// What every node's result must be.
enum class Expect : std::uint8_t {
  kGlobalMin,     ///< inputs are 1..n: every node holds 1
  kGlobalSum,     ///< inputs are 1..n: every node holds n(n+1)/2
  kConservation,  ///< per QoS class, arrivals == delivered + backlog
};

inline constexpr std::uint64_t kPinnedSeed = 7;

struct Workload {
  std::string_view name;
  std::string_view scenario;
  mmn::NodeId n;
  Mode mode;
  unsigned ranks;  ///< kRanks only
  Expect expect;
  std::uint64_t pinned_digest;   ///< at kPinnedSeed
  mmn::Metrics pinned_metrics;   ///< at kPinnedSeed
};

const std::vector<Workload>& workloads();
const Workload* find_workload(std::string_view name);

/// One repetition.  Timings are wall seconds; `failure` is empty when the
/// run completed under its round cap and every check passed.
struct Rep {
  std::string failure;
  double setup_s = 0;   ///< graph build + engine construction (+ rank fork)
  double step_s = 0;    ///< stepping to completion
  double result_s = 0;  ///< start of set-up to a checked result
  std::uint64_t node_rounds = 0;  ///< realized n x rounds
  std::uint64_t digest = 0;
  mmn::Metrics metrics;
  /// Traced repetitions only: per-layer metrics, in a fixed order.
  std::vector<std::pair<std::string, double>> layers;
};

/// Runs one repetition.  With `log` set every layer call is decorated,
/// spans go to `log` under run id `run`, and `layers` is filled; spans of
/// rank processes other than rank 0 are appended to `rank_csv_prefix` +
/// "<rank>.csv" by the rank itself (not written when the prefix is empty).
Rep run_rep(const Workload& w, std::uint64_t seed, SpanLog* log = nullptr,
            std::uint32_t run = 0, const std::string& rank_csv_prefix = {});

/// Set-up alone (graph build + engine construction), wall seconds.
double setup_only(const Workload& w, std::uint64_t seed);

/// The expected result of every node for kGlobalMin / kGlobalSum; empty
/// string when all `values` match, else a description of the first miss.
std::string check_values(Expect expect, mmn::NodeId n,
                         std::span<const mmn::sim::Word> values,
                         mmn::NodeId first_id = 0);

/// Per-class open-loop accounting summed over stations, next to the
/// engine's own latency recorder totals.
struct ClassTotals {
  std::array<std::uint64_t, mmn::sim::kNumQosClasses> arrivals{};
  std::array<std::uint64_t, mmn::sim::kNumQosClasses> delivered{};
  std::array<std::uint64_t, mmn::sim::kNumQosClasses> backlog{};
  std::array<std::uint64_t, mmn::sim::kNumQosClasses> recorded_arrivals{};
  std::array<std::uint64_t, mmn::sim::kNumQosClasses> recorded_delivered{};
};
std::string check_conservation(const ClassTotals& t);

/// Pinned digest + Metrics at kPinnedSeed; always empty at other seeds.
std::string check_pinned(const Workload& w, std::uint64_t seed,
                         std::uint64_t digest, const mmn::Metrics& m);

/// Attempted / failed bookkeeping over repetitions.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few distinct reasons
  void add(const Rep& rep);
};

/// Peak resident set over this process and every child it has reaped
/// (rank processes), MiB.
double peak_rss_mb();

}  // namespace perfbench
