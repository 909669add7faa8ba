// Cross-rank transport and wire format for sharded execution.
//
// A sharded run splits the node set over OS processes, each stepping its
// window with the ordinary Engine (sim/engine.hpp, sim/rank.hpp); per round
// each pair of ranks swaps one batched frame — cross-shard MsgHeaders plus
// their pooled payloads, the rank's channel writes, and its outstanding
// count.  This header is the seam that keeps the engine transport-agnostic:
// Transport is a tiny pairwise-exchange interface, the bundled
// implementation is an AF_UNIX socketpair full mesh built by fork(), and an
// MPI backend could drop in behind the same calls without touching the
// engine.  The frame layout is owned here too, as pure encode/decode
// functions, so the one data format has one definition.
//
// The exchange primitive is a *swap*, not a send: both sides of a pair call
// exchange() with their outgoing blob and receive the peer's.  The
// implementation drains both directions concurrently (poll() on a
// nonblocking fd), so the swap cannot deadlock no matter how lopsided the
// two blobs are — neither side needs the other to finish writing first.
// Ranks visit peers in ascending (min, max) pair order, which gives the
// deterministic rank-major merge order the determinism proof needs
// (ARCHITECTURE.md, "Sharded execution").
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "sim/runtime_core.hpp"

namespace mmn::sim::shard_comm {

/// Pairwise blob swap between this rank and one peer.  Implementations are
/// process-private handles onto a pre-built mesh; they are not thread-safe
/// (only the rank's driving thread exchanges, between rounds).
class Transport {
 public:
  virtual ~Transport() = default;

  virtual unsigned rank() const = 0;
  virtual unsigned ranks() const = 0;

  /// Swaps `bytes` of `data` against the peer's concurrent exchange() call;
  /// the peer's blob lands in `in` (resized, capacity reused round over
  /// round).  Both sides must call — the swap is symmetric and blocking.
  virtual void exchange(unsigned peer, const std::uint8_t* data,
                        std::size_t bytes, std::vector<std::uint8_t>& in) = 0;

  /// Wire traffic so far, both directions, framing included — the
  /// cross-boundary byte counters bench_shard_comm publishes.
  virtual std::uint64_t bytes_out() const = 0;
  virtual std::uint64_t bytes_in() const = 0;
};

/// Forks `ranks - 1` child processes and runs `fn(transport)` in every rank
/// over an AF_UNIX socketpair full mesh (parent = rank 0).  A child _exits
/// when fn returns; when fn throws, it prints what() to stderr and _exits
/// nonzero, so no child ever returns into the caller's code.  The parent
/// reaps every child — also when its own fn throws — and then rethrows its
/// own exception, or throws if any child exited abnormally.  With
/// ranks == 1 no fork happens and fn gets a loopback transport with no
/// peers.  Returns only in the parent.  The caller must not hold threads
/// across the call (fork copies only the calling thread); fn may start its
/// own, e.g. a ParallelScheduler inside the rank's Engine.
void run_ranks(unsigned ranks, const std::function<void(Transport&)>& fn);

// ---------------------------------------------------------------------------
// Wire format.  One frame per ordered rank pair per round, host-endian (the
// ranks share a host):
//
//   u64 n_headers | n_headers x MsgHeader   global `to`; ref = payload ordinal
//   u64 payload_bytes | one live-prefix Packet per payload run
//   u64 n_writes | n_writes x (NodeId node | live-prefix Packet)
//   u64 outstanding
//
// A payload run is a stretch of consecutive headers sharing one staged
// payload (a broadcast), so it ships once; header refs count runs from 0.
// Before the first round each pair swaps one bare u64 outstanding count.

/// Half-open global node window [first, second): Scheduler::shard_range.
using Window = std::pair<NodeId, NodeId>;

/// One destination rank's outgoing cross-shard batch for the round.
class PeerBatch {
 public:
  void clear() {
    headers_.clear();
    payload_.clear();
    runs_ = 0;
    last_src_ = kNoRef;
  }

  /// Starts a new staging pool: refs are per-shard pool indices, so equal
  /// refs from two shards are different payloads.  Call between shards.
  void next_pool() { last_src_ = kNoRef; }

  /// Appends one header; a ref change starts a new payload run.
  void pack(const MsgHeader& h, const Packet& payload);

  std::span<const MsgHeader> headers() const { return headers_; }
  std::span<const std::uint8_t> payload() const { return payload_; }

 private:
  static constexpr PacketRef kNoRef = static_cast<PacketRef>(-1);

  std::vector<MsgHeader> headers_;
  std::vector<std::uint8_t> payload_;
  PacketRef runs_ = 0;
  PacketRef last_src_ = kNoRef;
};

/// Writes one round frame into `blob` (cleared first; capacity reused).
void encode_frame(const PeerBatch& batch, std::span<const ChannelWrite> writes,
                  std::int64_t outstanding, std::vector<std::uint8_t>& blob);

/// Decodes one round frame sent by the rank owning `src` to the rank owning
/// `dst`.  Headers are rebased to `dst`-local destinations and appended to
/// `ingress.outbox`, each payload run staged once into `ingress`'s pool;
/// channel writes are appended to `writes`.  Returns the sender's
/// outstanding count.  Every count is checked against the bytes left and
/// every node id against its window, so a torn or hostile frame throws
/// (MMN_REQUIRE) and never reads outside `blob`.
std::int64_t decode_frame(std::span<const std::uint8_t> blob, Window src,
                          Window dst, ShardBuffer& ingress,
                          std::vector<ChannelWrite>& writes);

/// The pre-round frame: one bare outstanding count.
void encode_count(std::int64_t outstanding, std::vector<std::uint8_t>& blob);
std::int64_t decode_count(std::span<const std::uint8_t> blob, Window src);

}  // namespace mmn::sim::shard_comm
