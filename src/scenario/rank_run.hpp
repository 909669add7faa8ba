// Sharded scenario execution: scenario::run's synchronous branch, spread
// over rank processes (sim/rank.hpp + sim/shard_comm.hpp).
//
// run_sharded(s, n, seed, K) is the drop-in sharded counterpart of
// run(s, n, seed): it forks K ranks, each builds ONLY its node window of
// the topology (build_topology_window — same generator stream, global edge
// ids and the full weight permutation, so windowed CSR rows are
// bit-identical to the full build's), steps the window with sim::Engine
// (built with a RankSpec and the rank's Transport) to completion, and
// rank 0 assembles the identical RunResult — digest, metrics, and fault
// stats all bit-equal to the serial run's.  The digest is chained: rank r
// folds its own window [lo, hi) starting from rank r-1's partial
// accumulator (NodeResults::begin/h0), which reproduces the serial
// node-major fold exactly; reductions (p2p messages, fault drops) ride the
// same post-run gather to rank 0.
#pragma once

#include <cstdint>

#include "scenario/registry.hpp"

namespace mmn::scenario {

/// Cross-shard traffic accounting of a sharded run, for bench_shard_comm.
/// Zeroed on the ranks == 1 delegation path (no wire, no frontier).
struct ShardStats {
  std::uint64_t xshard_msgs = 0;     ///< cross-shard headers sent, all ranks
  std::uint64_t boundary_edges = 0;  ///< edges with endpoints in two shards
  std::uint64_t wire_bytes = 0;      ///< transport bytes sent, all ranks
  std::uint64_t rounds = 0;          ///< rounds run (replicated count)
};

/// Runs scenario `s` at nominal size n over `ranks` processes and returns
/// rank 0's assembled result, bit-identical (digest + metrics + fault
/// stats) to run(s, n, seed, nullptr, kSync, load, faults).  ranks == 1
/// delegates to that serial run.  Synchronous-engine scenarios only;
/// fault-recovery scenarios (two-phase epoch rebuild) are rejected.
RunResult run_sharded(const Scenario& s, NodeId n, std::uint64_t seed,
                      unsigned ranks, double load = 0.0,
                      std::uint32_t faults = 0, ShardStats* stats = nullptr);

}  // namespace mmn::scenario
