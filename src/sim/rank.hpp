// Sharded synchronous execution: one rank per OS process, each stepping a
// contiguous node window with the ordinary Engine (sim/engine.hpp).  The
// window, the ingress buffers and the per-round swap live in RuntimeCore;
// the frame format and the transport live in sim/shard_comm.hpp; the
// ownership model and the bit-identity argument are in ARCHITECTURE.md,
// "Sharded execution".
#pragma once

#include "graph/graph.hpp"
#include "sim/engine.hpp"

namespace mmn::sim {

/// This rank's slice of the node set: shard_range(n, rank, ranks).
struct RankSpec {
  unsigned rank = 0;
  unsigned ranks = 1;
  NodeId lo = 0;
  NodeId hi = 0;
};

/// A rank is an Engine built with a RankSpec and a Transport.
using RankEngine = Engine;

}  // namespace mmn::sim
